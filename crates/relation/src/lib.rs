//! # cerfix-relation — relational substrate for the CerFix reproduction
//!
//! An in-memory relational layer purpose-built for the CerFix system
//! (Fan et al., *CerFix: A System for Cleaning Data with Certain Fixes*,
//! PVLDB 4(12), 2011): typed values, schemas, tuples, row-store relations,
//! multi-attribute hash indexes, scan predicates, CSV I/O and table
//! rendering.
//!
//! The demo system connects to a DBMS over JDBC; this crate is the
//! substitution documented in `DESIGN.md` §2 — the data monitor is generic
//! over "several interfaces to access data" (paper §3), and every CerFix
//! component upstream of storage interacts only with [`Relation`],
//! [`Tuple`], [`Schema`] and [`HashIndex`].
//!
//! ## Quick tour
//!
//! ```
//! use cerfix_relation::{Schema, Tuple, Relation, HashIndex, Value};
//!
//! // The paper's master schema (Example 2).
//! let master_schema = Schema::of_strings(
//!     "master",
//!     ["FN", "LN", "AC", "Hphn", "Mphn", "str", "city", "zip", "DoB", "gender"],
//! ).unwrap();
//!
//! let s = Tuple::of_strings(master_schema.clone(), [
//!     "Robert", "Brady", "131", "6884563", "079172485",
//!     "501 Elm St", "Edi", "EH8 4AH", "11/11/55", "M",
//! ]).unwrap();
//!
//! let mut master = Relation::empty(master_schema.clone());
//! master.push(s).unwrap();
//!
//! // Index on zip for editing-rule lookups (rule φ1 joins on zip).
//! let zip = master_schema.attr_id("zip").unwrap();
//! let index = HashIndex::build(&master, vec![zip]);
//! assert_eq!(index.lookup(&[Value::str("EH8 4AH")]).len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attrset;
mod builder;
mod csv;
mod datatype;
mod display;
mod error;
mod index;
mod predicate;
mod relation;
mod schema;
mod tuple;
mod value;

pub use attrset::AttrSet;
pub use builder::{RelationBuilder, SchemaBuilder};
pub use csv::{
    read_raw_records, read_relation_file, read_relation_str, read_untyped_str, write_relation_file,
    write_relation_str,
};
pub use datatype::DataType;
pub use display::{render_relation, render_relation_head, render_table, render_tuples};
pub use error::{RelationError, Result};
pub use index::{FiledRows, HashIndex, Probe};
pub use predicate::{CompareOp, Predicate};
pub use relation::{Relation, RowId};
pub use schema::{AttrId, Attribute, Schema, SchemaRef};
pub use tuple::{Cells, Tuple};
pub use value::{Text, Value};
