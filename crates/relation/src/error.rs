//! Error types for the relational substrate.

use std::fmt;

/// Errors raised by schema construction, tuple validation, indexing and I/O.
#[derive(Debug)]
pub enum RelationError {
    /// An attribute name was referenced that does not exist in the schema.
    UnknownAttribute {
        /// The missing attribute name.
        name: String,
        /// The schema in which it was looked up.
        schema: String,
    },
    /// An attribute id was out of range for the schema.
    AttributeOutOfRange {
        /// The offending index.
        id: usize,
        /// Number of attributes in the schema.
        arity: usize,
    },
    /// Two attributes with the same name were added to one schema.
    DuplicateAttribute {
        /// The duplicated name.
        name: String,
    },
    /// A tuple had the wrong number of values for its schema.
    ArityMismatch {
        /// Expected arity (schema width).
        expected: usize,
        /// Actual number of values supplied.
        actual: usize,
    },
    /// A value did not conform to the declared attribute type.
    TypeMismatch {
        /// Attribute the value was destined for.
        attribute: String,
        /// Declared type name.
        expected: &'static str,
        /// The value's type name.
        actual: &'static str,
    },
    /// A tuple from a different schema was inserted into a relation.
    SchemaMismatch {
        /// Schema of the relation.
        expected: String,
        /// Schema of the tuple.
        actual: String,
    },
    /// A textual value could not be parsed as the declared type.
    ParseValue {
        /// Raw text that failed to parse.
        text: String,
        /// Target type name.
        target: &'static str,
    },
    /// CSV input was structurally malformed.
    Csv {
        /// 1-based line number, when known.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// An empty schema (zero attributes) was requested where not allowed.
    EmptySchema,
}

impl fmt::Display for RelationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationError::UnknownAttribute { name, schema } => {
                write!(f, "unknown attribute `{name}` in schema `{schema}`")
            }
            RelationError::AttributeOutOfRange { id, arity } => {
                write!(
                    f,
                    "attribute id {id} out of range for schema of arity {arity}"
                )
            }
            RelationError::DuplicateAttribute { name } => {
                write!(f, "duplicate attribute `{name}` in schema")
            }
            RelationError::ArityMismatch { expected, actual } => {
                write!(
                    f,
                    "tuple arity mismatch: schema expects {expected} values, got {actual}"
                )
            }
            RelationError::TypeMismatch {
                attribute,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "type mismatch for attribute `{attribute}`: expected {expected}, got {actual}"
                )
            }
            RelationError::SchemaMismatch { expected, actual } => {
                write!(
                    f,
                    "schema mismatch: relation has `{expected}`, tuple has `{actual}`"
                )
            }
            RelationError::ParseValue { text, target } => {
                write!(f, "cannot parse `{text}` as {target}")
            }
            RelationError::Csv { line, message } => {
                write!(f, "csv error at line {line}: {message}")
            }
            RelationError::Io(e) => write!(f, "io error: {e}"),
            RelationError::EmptySchema => write!(f, "schema must have at least one attribute"),
        }
    }
}

impl std::error::Error for RelationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RelationError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for RelationError {
    fn from(e: std::io::Error) -> Self {
        RelationError::Io(e)
    }
}

/// Convenient result alias for the relational substrate.
pub type Result<T> = std::result::Result<T, RelationError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_unknown_attribute() {
        let e = RelationError::UnknownAttribute {
            name: "zip".into(),
            schema: "master".into(),
        };
        assert_eq!(e.to_string(), "unknown attribute `zip` in schema `master`");
    }

    #[test]
    fn display_arity_mismatch() {
        let e = RelationError::ArityMismatch {
            expected: 9,
            actual: 7,
        };
        assert!(e.to_string().contains("expects 9"));
        assert!(e.to_string().contains("got 7"));
    }

    #[test]
    fn io_error_source_is_preserved() {
        use std::error::Error;
        let inner = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e = RelationError::from(inner);
        assert!(e.source().is_some());
        assert!(e.to_string().contains("gone"));
    }

    #[test]
    fn display_parse_value() {
        let e = RelationError::ParseValue {
            text: "abc".into(),
            target: "int",
        };
        assert_eq!(e.to_string(), "cannot parse `abc` as int");
    }
}
