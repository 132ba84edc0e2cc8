//! The data explorer: rule management and instance configuration.
//!
//! Stands in for the demo's Web interface (paper Fig. 2): view, add,
//! modify and delete editing rules, re-check consistency after every
//! change, and maintain the pre-computed certain regions. The textual
//! tables rendered here mirror the screenshot's rule listing.

use crate::engine::{check_consistency, ConsistencyOptions, ConsistencyReport};
use crate::error::Result;
use crate::master::{MasterData, MasterDelta};
use crate::region::{search_regions, Region, RegionFinderOptions, RegionSearchResult};
use cerfix_relation::{render_table, Tuple};
use cerfix_rules::{parse_rules, render_er_dsl, RuleDecl, RuleSet};

/// A configured CerFix instance: rules, master data and cached regions.
#[derive(Debug)]
pub struct Explorer {
    rules: RuleSet,
    master: MasterData,
    regions: Vec<Region>,
    /// Regions have been searched since the rules last changed, so a
    /// master append searches them again.
    searched: bool,
}

impl Explorer {
    /// Configure an instance from a rule set and master data (the demo's
    /// "initialization" step, with CSV replacing the JDBC connection).
    pub fn new(rules: RuleSet, master: MasterData) -> Explorer {
        Explorer {
            rules,
            master,
            regions: Vec::new(),
            searched: false,
        }
    }

    /// The managed rule set.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// The master data.
    pub fn master(&self) -> &MasterData {
        &self.master
    }

    /// The cached certain regions (empty until
    /// [`recompute_regions`](Explorer::recompute_regions) runs).
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Add editing rules written in the DSL. Only `er` declarations are
    /// accepted here; CFDs/MDs should be derived into editing rules first
    /// (the demo's rule manager imports eRs, paper §3). Returns how many
    /// rules were added.
    pub fn add_rules_dsl(&mut self, text: &str) -> Result<usize> {
        let decls = parse_rules(text, self.rules.input_schema(), self.rules.master_schema())?;
        let mut added = 0;
        for decl in decls {
            match decl {
                RuleDecl::Er(rule) => {
                    self.rules.add(rule)?;
                    added += 1;
                }
                RuleDecl::Cfd(cfd) => {
                    return Err(cerfix_rules::RuleError::InvalidRule {
                        rule: cfd.name().into(),
                        message: "derive CFDs into editing rules before adding (see cerfix_rules::derive_from_cfd)".into(),
                    }
                    .into());
                }
                RuleDecl::Md(md) => {
                    return Err(cerfix_rules::RuleError::InvalidRule {
                        rule: md.name().into(),
                        message: "derive MDs into editing rules before adding (see cerfix_rules::derive_from_md)".into(),
                    }
                    .into());
                }
            }
        }
        self.regions.clear(); // stale after rule changes
        self.searched = false;
        Ok(added)
    }

    /// Delete the rule named `name`.
    pub fn delete_rule(&mut self, name: &str) -> Result<()> {
        self.rules.remove(name)?;
        self.regions.clear();
        self.searched = false;
        Ok(())
    }

    /// Replace the rule named `name` with a DSL declaration.
    pub fn update_rule_dsl(&mut self, name: &str, text: &str) -> Result<()> {
        let decls = parse_rules(text, self.rules.input_schema(), self.rules.master_schema())?;
        let [RuleDecl::Er(rule)] = &decls[..] else {
            return Err(cerfix_rules::RuleError::InvalidRule {
                rule: name.into(),
                message: "update requires exactly one `er` declaration".into(),
            }
            .into());
        };
        self.rules.update(name, rule.clone())?;
        self.regions.clear();
        self.searched = false;
        Ok(())
    }

    /// Check the rule set's consistency against the master data — the
    /// demo runs this automatically when rules change ("CerFix
    /// automatically tests whether the specified eRs make sense w.r.t.
    /// master data", paper §3).
    pub fn check_consistency(&self) -> ConsistencyReport {
        check_consistency(&self.rules, &self.master, &ConsistencyOptions::default())
    }

    /// Recompute and cache the top-k certain regions for the given truth
    /// universe; a later [`append_master`](Explorer::append_master)
    /// searches again.
    pub fn recompute_regions(
        &mut self,
        universe: &[Tuple],
        options: &RegionFinderOptions,
    ) -> RegionSearchResult {
        let result = search_regions(&self.rules, &self.master, universe, options).result;
        self.regions = result.regions.clone();
        self.searched = true;
        result
    }

    /// Append rows to the master repository. When regions are cached,
    /// they are searched again over the grown master, certified over
    /// `universe` (the truths of the grown master). Returns what changed.
    pub fn append_master(
        &mut self,
        rows: Vec<Tuple>,
        universe: &[Tuple],
        options: &RegionFinderOptions,
    ) -> Result<MasterDelta> {
        let delta = self.master.append_rows(rows)?;
        if self.searched {
            self.recompute_regions(universe, options);
        }
        Ok(delta)
    }

    /// Render the rule listing as Fig. 2 shows it: id, name, match
    /// condition, fixes, pattern.
    pub fn render_rules(&self) -> String {
        let input = self.rules.input_schema();
        let master = self.rules.master_schema();
        let header: Vec<String> = ["id", "name", "rule"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let rows: Vec<Vec<String>> = self
            .rules
            .iter()
            .map(|(id, r)| {
                vec![
                    id.to_string(),
                    r.name().to_string(),
                    render_er_dsl(r, input, master),
                ]
            })
            .collect();
        render_table(&header, &rows)
    }

    /// Render the cached regions, ranked as the region finder produced
    /// them.
    pub fn render_regions(&self) -> String {
        let input = self.rules.input_schema();
        let header: Vec<String> = ["rank", "size", "region"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let rows: Vec<Vec<String>> = self
            .regions
            .iter()
            .enumerate()
            .map(|(i, r)| vec![(i + 1).to_string(), r.size().to_string(), r.render(input)])
            .collect();
        render_table(&header, &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cerfix_relation::{RelationBuilder, Schema};

    fn explorer() -> Explorer {
        let input = Schema::of_strings("customer", ["AC", "city", "zip", "item"]).unwrap();
        let ms = Schema::of_strings("master", ["AC", "city", "zip"]).unwrap();
        let master = MasterData::new(
            RelationBuilder::new(ms.clone())
                .row_strs(["131", "Edi", "EH8"])
                .row_strs(["020", "Ldn", "SW1"])
                .build()
                .unwrap(),
        );
        Explorer::new(RuleSet::new(input, ms), master)
    }

    #[test]
    fn add_list_delete_rules() {
        let mut ex = explorer();
        let added = ex
            .add_rules_dsl(
                "er phi1: match zip=zip fix AC:=AC when ()\n\
                 er phi3: match zip=zip fix city:=city when ()",
            )
            .unwrap();
        assert_eq!(added, 2);
        assert_eq!(ex.rules().len(), 2);
        let listing = ex.render_rules();
        assert!(listing.contains("phi1"));
        assert!(listing.contains("zip=zip"));
        ex.delete_rule("phi1").unwrap();
        assert_eq!(ex.rules().len(), 1);
        assert!(ex.delete_rule("phi1").is_err());
    }

    #[test]
    fn update_rule() {
        let mut ex = explorer();
        ex.add_rules_dsl("er phi1: match zip=zip fix AC:=AC when ()")
            .unwrap();
        ex.update_rule_dsl("phi1", "er phi1: match zip=zip fix city:=city when ()")
            .unwrap();
        let (_, rule) = ex.rules().get_by_name("phi1").unwrap();
        assert_eq!(
            rule.input_rhs(),
            vec![ex.rules().input_schema().attr_id("city").unwrap()]
        );
        // Multiple declarations rejected.
        assert!(ex
            .update_rule_dsl(
                "phi1",
                "er a: match zip=zip fix AC:=AC when ()\ner b: match zip=zip fix city:=city when ()"
            )
            .is_err());
    }

    #[test]
    fn cfd_and_md_declarations_rejected_with_guidance() {
        let mut ex = explorer();
        let err = ex.add_rules_dsl("cfd c1: AC -> city | _ -> _").unwrap_err();
        assert!(err.to_string().contains("derive_from_cfd"));
        let err = ex
            .add_rules_dsl("md m1: AC==AC identify city<=>city")
            .unwrap_err();
        assert!(err.to_string().contains("derive_from_md"));
    }

    #[test]
    fn consistency_check_runs() {
        let mut ex = explorer();
        ex.add_rules_dsl("er phi1: match zip=zip fix city:=city when ()")
            .unwrap();
        ex.add_rules_dsl("er phi2: match AC=AC fix city:=city when ()")
            .unwrap();
        let report = ex.check_consistency();
        // zip=EH8 → Edi vs AC=020 → Ldn can coexist on one tuple.
        assert!(!report.is_consistent());
    }

    #[test]
    fn regions_cached_and_invalidated() {
        let mut ex = explorer();
        ex.add_rules_dsl(
            "er phi1: match zip=zip fix AC:=AC when ()\n\
             er phi3: match zip=zip fix city:=city when ()",
        )
        .unwrap();
        let input = ex.rules().input_schema().clone();
        let universe = vec![
            Tuple::of_strings(input.clone(), ["131", "Edi", "EH8", "CD"]).unwrap(),
            Tuple::of_strings(input.clone(), ["020", "Ldn", "SW1", "DVD"]).unwrap(),
        ];
        let result = ex.recompute_regions(&universe, &RegionFinderOptions::default());
        assert!(!result.regions.is_empty());
        assert_eq!(ex.regions().len(), result.regions.len());
        let rendered = ex.render_regions();
        assert!(rendered.contains("zip"));
        // Rule changes invalidate the cache.
        ex.add_rules_dsl("er extra: match AC=AC fix city:=city when ()")
            .unwrap();
        assert!(ex.regions().is_empty());
    }
}
