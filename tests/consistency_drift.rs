//! An install that makes the rules inconsistent with master data, as the
//! service handles it today: neither `master.append` nor `rules.reload`
//! checks consistency, so the inconsistent state is installed and
//! served — `check` answers `consistent: false` while sessions go on
//! receiving "certain" fixes. Two ways in, both on the paper's UK rules
//! over one master entity (Fig. 2's first row), where φ1–φ9 are
//! consistent even in strict mode:
//!
//! * a master append whose new entity gives φ3 (`zip → city`) and φ9
//!   (`AC → city`), two rules with the target `city`, keys that derive
//!   different cities for one input tuple;
//! * a reload of φ1–φ9 plus a rule that derives `city` from the master's
//!   street on φ3's own key.
//!
//! These pin the behaviour; refusing such an install is a later change,
//! which will flip them.

use cerfix::MasterData;
use cerfix_gen::uk;
use cerfix_relation::RelationBuilder;
use cerfix_server::wire::Json;
use cerfix_server::{CleaningService, ServiceConfig};
use std::sync::Arc;

/// The UK rules over Fig. 2's first master row (Robert Brady) alone.
fn one_entity_uk_service() -> CleaningService {
    let [robert, _] = uk::paper_master_rows()
        .try_into()
        .expect("Fig. 2 has two rows");
    // `master.append` builds its rows over the rules' master schema.
    let rules = uk::rules();
    let master = RelationBuilder::new(rules.master_schema().clone())
        .row_strs(robert)
        .build()
        .unwrap();
    CleaningService::new(
        Arc::new(MasterData::new(master)),
        Arc::new(rules),
        ServiceConfig::default(),
    )
}

fn ok(service: &CleaningService, line: &str) -> Json {
    let reply = Json::parse(&service.handle_line(line)).expect("a JSON reply");
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "{line}: {reply:?}"
    );
    reply
}

/// `check` in strict mode: (consistent, conflicts).
fn check(service: &CleaningService) -> (bool, f64) {
    let reply = ok(service, r#"{"op":"check"}"#);
    let consistent = reply.get("consistent").and_then(Json::as_bool);
    let conflicts = reply.get("conflicts").and_then(Json::as_f64);
    (consistent.unwrap(), conflicts.unwrap())
}

/// Fig. 3 on Robert Brady's entry: validating AC, phn, type and item
/// fixes FN from the master (φ4; LN is already right) and city (φ9).
/// Returns the fixes the round made, as (attribute, new value).
fn a_session_fixes(service: &CleaningService) -> Vec<(String, String)> {
    let created = ok(
        service,
        r#"{"op":"session.create","tuple":["Bob","Brady","020","079172485","2","501 Elm St","Ldn","EH8 4AH","CD"]}"#,
    );
    let id = created.get("session").and_then(Json::as_f64).unwrap();
    let validated = ok(
        service,
        &format!(
            r#"{{"op":"session.validate","session":{id},"validations":{{"AC":"131","phn":"079172485","type":"2","item":"CD"}}}}"#
        ),
    );
    let fixes = validated.get("fixes").and_then(Json::as_arr).unwrap();
    let field = |fix: &Json, key| fix.get(key).and_then(Json::as_str).unwrap().to_string();
    fixes
        .iter()
        .map(|fix| (field(fix, "attr"), field(fix, "new")))
        .collect()
}

/// What Fig. 3's round fixes on Robert Brady's entry.
fn robert() -> Vec<(String, String)> {
    [("FN", "Robert"), ("city", "Edi")]
        .map(|(a, v)| (a.to_string(), v.to_string()))
        .to_vec()
}

#[test]
fn an_append_that_makes_two_city_rules_conflict_is_installed_and_served() {
    let service = one_entity_uk_service();
    assert_eq!(check(&service), (true, 0.0), "φ1–φ9 over one entity");
    assert_eq!(a_session_fixes(&service), robert());

    // Mark Smith: zip NW1 6XE → Ldn through φ3, while φ9 still derives
    // Edi from AC 131 — an input with Robert's AC and Mark's zip gets
    // either city, by which rule fires first.
    let appended = ok(
        &service,
        r#"{"op":"master.append","tuples":[["Mark","Smith","020","6884564","075568485","20 Baker St","Ldn","NW1 6XE","25/12/67","M"]]}"#,
    );
    assert_eq!(
        appended.get("master_rows").and_then(Json::as_f64),
        Some(2.0)
    );
    let (consistent, conflicts) = check(&service);
    assert!(!consistent, "the append made φ3 and φ9 disagree");
    assert!(conflicts >= 1.0);
    assert_eq!(a_session_fixes(&service), robert(), "sessions keep fixing");
}

#[test]
fn a_reload_with_a_contradicting_rule_is_installed_and_served() {
    let service = one_entity_uk_service();
    assert_eq!(check(&service), (true, 0.0), "φ1–φ9 over one entity");

    // φ10 fixes `city` from the master's street on φ3's key `zip`: for
    // Robert's zip, φ3 derives Edi and φ10 "501 Elm St".
    let dsl = format!(
        "{}er phi10: match zip=zip fix city:=str when ()\n",
        uk::UK_RULES_DSL
    );
    let mut line = String::from(r#"{"op":"rules.reload","rules":"#);
    line.push_str(&Json::Str(dsl).render());
    line.push('}');
    let reloaded = ok(&service, &line);
    assert_eq!(reloaded.get("rules").and_then(Json::as_f64), Some(10.0));
    let (consistent, conflicts) = check(&service);
    assert!(!consistent, "φ10 contradicts φ3");
    assert!(conflicts >= 1.0);
    assert_eq!(a_session_fixes(&service), robert(), "sessions keep fixing");
}
