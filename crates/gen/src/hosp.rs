//! A HOSP-style scenario (US hospital quality data).
//!
//! The theory paper behind CerFix evaluates on HOSP, the US Department of
//! Health & Human Services hospital dataset. We cannot ship that data, so
//! this module generates a synthetic equivalent with the same dependency
//! structure: provider numbers identify hospitals (name, address, phone,
//! location), zip codes determine city and state, and measure codes
//! determine measure names and conditions.
//!
//! Unlike the UK scenario, input and master schemas here coincide
//! attribute-for-attribute, exercising the by-name rule derivation path.

use crate::names::{MEASURES, STREETS, US_STATES};
use crate::scenario::Scenario;
use cerfix_relation::{Relation, RelationBuilder, Schema, SchemaRef, Tuple};
use cerfix_rules::{parse_rules, RuleDecl, RuleSet};
use rand::rngs::StdRng;
use rand::Rng;

/// Editing rules for the HOSP scenario.
///
/// `provider` and `measure` are the entity keys and are never fixed by a
/// rule (they are the user-validated core); everything else flows from
/// them or from zip.
pub const HOSP_RULES_DSL: &str = "\
# HOSP-style rules: provider determines the hospital, zip the geography,
# and the measure code its description.
er h1: match provider=provider fix hospital:=hospital when ()
er h2: match provider=provider fix addr:=addr when ()
er h3: match provider=provider fix phone:=phone when ()
er h4: match provider=provider fix zip:=zip when ()
er h5: match zip=zip fix city:=city when ()
er h6: match zip=zip fix state:=state when ()
er h7: match measure=measure fix mname:=mname when ()
er h8: match measure=measure fix condition:=condition when ()
";

/// Attribute names shared by the input and master schemas.
const ATTRS: [&str; 10] = [
    "provider",
    "hospital",
    "addr",
    "city",
    "state",
    "zip",
    "phone",
    "measure",
    "mname",
    "condition",
];

/// The input schema.
pub fn input_schema() -> SchemaRef {
    Schema::of_strings("hosp_entry", ATTRS).expect("static schema")
}

/// The master schema (same attributes, distinct schema object).
pub fn master_schema() -> SchemaRef {
    Schema::of_strings("hosp_master", ATTRS).expect("static schema")
}

/// Generate `n` master rows: hospitals × measures, with functional
/// zip→(city,state) and provider→everything.
pub fn generate_master(n: usize, rng: &mut StdRng) -> Relation {
    let schema = master_schema();
    let mut builder = RelationBuilder::new(schema);
    // Hospitals are reused across measures: ~1 hospital per 4 rows.
    let n_hospitals = (n / 4).max(1);
    let mut hospitals: Vec<[String; 7]> = Vec::with_capacity(n_hospitals);
    for h in 0..n_hospitals {
        let (state_code, state_name) = US_STATES[h % US_STATES.len()];
        let city = format!("{state_name} City {}", h / US_STATES.len());
        let zip = format!("{:05}", 10000 + h);
        let provider = format!("P{:06}", h);
        let hospital = format!("{city} General Hospital");
        let addr = format!("{} {}", rng.gen_range(1..999), STREETS[h % STREETS.len()]);
        let phone = format!("555{:07}", h);
        hospitals.push([
            provider,
            hospital,
            addr,
            city,
            state_code.to_string(),
            zip,
            phone,
        ]);
    }
    for i in 0..n {
        let h = &hospitals[i % n_hospitals];
        let (mcode, mname, condition) = MEASURES[i % MEASURES.len()];
        builder = builder.row_strs([
            h[0].as_str(),
            h[1].as_str(),
            h[2].as_str(),
            h[3].as_str(),
            h[4].as_str(),
            h[5].as_str(),
            h[6].as_str(),
            mcode,
            mname,
            condition,
        ]);
    }
    builder.build().expect("generated rows conform")
}

/// Parse the HOSP rules.
pub fn rules() -> RuleSet {
    let input = input_schema();
    let master = master_schema();
    let mut set = RuleSet::new(input.clone(), master.clone());
    for decl in parse_rules(HOSP_RULES_DSL, &input, &master).expect("static DSL parses") {
        match decl {
            RuleDecl::Er(r) => {
                set.add(r).expect("unique names");
            }
            _ => unreachable!("only er declarations"),
        }
    }
    set
}

/// Truth universe: each master row is itself a possible correct entry.
pub fn truth_universe(master: &Relation) -> Vec<Tuple> {
    let input = input_schema();
    master
        .iter()
        .map(|(_, s)| {
            Tuple::new(input.clone(), s.values().to_vec()).expect("same attribute layout")
        })
        .collect()
}

/// Build the complete HOSP scenario with `n` master rows.
pub fn scenario(n: usize, rng: &mut StdRng) -> Scenario {
    let master = generate_master(n, rng);
    let universe = truth_universe(&master);
    // Share the universe tuples' schema object so workload tuples can be
    // collected into relations over `Scenario::input` (schema identity,
    // not just structural equality, is enforced by `Relation::push`).
    let input = universe
        .first()
        .map(|t| t.schema().clone())
        .unwrap_or_else(input_schema);
    Scenario {
        name: "hosp",
        input,
        master_schema: master_schema(),
        master,
        rules: rules(),
        universe,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cerfix::{check_consistency, ConsistencyOptions, MasterData};
    use rand::SeedableRng;

    #[test]
    fn rules_parse() {
        let r = rules();
        assert_eq!(r.len(), 8);
    }

    #[test]
    fn master_functional_dependencies_hold() {
        let mut rng = StdRng::seed_from_u64(4);
        let master = generate_master(400, &mut rng);
        let mut zip_geo: std::collections::HashMap<String, (String, String)> = Default::default();
        let mut provider_row: std::collections::HashMap<String, Vec<String>> = Default::default();
        for (_, s) in master.iter() {
            let zip = s.get_by_name("zip").unwrap().render();
            let geo = (
                s.get_by_name("city").unwrap().render(),
                s.get_by_name("state").unwrap().render(),
            );
            if let Some(prev) = zip_geo.insert(zip, geo.clone()) {
                assert_eq!(prev, geo, "zip → (city, state) must be functional");
            }
            let provider = s.get_by_name("provider").unwrap().render();
            let identity: Vec<String> = ["hospital", "addr", "city", "state", "zip", "phone"]
                .iter()
                .map(|a| s.get_by_name(a).unwrap().render())
                .collect();
            if let Some(prev) = provider_row.insert(provider, identity.clone()) {
                assert_eq!(
                    prev, identity,
                    "provider → hospital identity must be functional"
                );
            }
        }
    }

    #[test]
    fn rules_consistent_both_modes() {
        let mut rng = StdRng::seed_from_u64(5);
        let master = MasterData::new(generate_master(200, &mut rng));
        let strict = check_consistency(&rules(), &master, &ConsistencyOptions::default());
        // h5/h6 (zip→city/state) never share a target with h1..h4
        // (provider→…); provider→zip and zip→city chains target disjoint
        // attrs; strict conflicts would need two rules on one target:
        // none exist ⇒ consistent even strictly.
        assert!(strict.is_consistent(), "{:?}", strict.conflicts);
        let coherent = check_consistency(&rules(), &master, &ConsistencyOptions::entity_coherent());
        assert!(coherent.is_consistent());
    }

    #[test]
    fn universe_mirrors_master() {
        let mut rng = StdRng::seed_from_u64(6);
        let master = generate_master(40, &mut rng);
        let universe = truth_universe(&master);
        assert_eq!(universe.len(), 40);
        assert_eq!(universe[0].schema().name(), "hosp_entry");
        assert_eq!(universe[0].values(), master.row(0).unwrap().values());
    }

    #[test]
    fn minimal_region_is_provider_plus_measure() {
        // With provider and measure validated, every other attribute is
        // reachable: provider→{hospital,addr,phone,zip}, zip→{city,state},
        // measure→{mname,condition}.
        let input = input_schema();
        let masks = cerfix::engine::RuleMasks::of(&rules());
        let seed = [
            input.attr_id("provider").unwrap(),
            input.attr_id("measure").unwrap(),
        ]
        .into();
        assert!(masks.spans(&masks.all_rules(), &seed));
    }
}
