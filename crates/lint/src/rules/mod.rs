//! The rule registry. One module per rule; each rule is a stateless
//! [`Rule`] implementation over the shared [`LintContext`].

use crate::context::LintContext;
use hlsb_findings::Diagnostic;
use hlsb_findings::RuleMeta;

pub mod ba01;
pub mod ba02;
pub mod pc01;
pub mod sy01;

pub use ba01::DataBroadcast;
pub use ba02::MemoryScatter;
pub use pc01::StallBroadcast;
pub use sy01::SyncFanin;

/// One static-analysis rule.
///
/// Rules are pure: they read the [`LintContext`] and append
/// [`Diagnostic`]s; they never mutate the design. Each rule cites the
/// paper section whose broadcast pattern it detects and carries a fixed
/// remedy phrased in terms of this workspace's flow options.
pub trait Rule {
    /// Stable rule id (`BA01`, ...), used in reports and SARIF.
    fn id(&self) -> &'static str;
    /// Short kebab-case name (`data-broadcast`, ...).
    fn name(&self) -> &'static str;
    /// Paper section(s) the rule reproduces.
    fn section(&self) -> &'static str;
    /// One-line description for rule metadata (SARIF `shortDescription`).
    fn summary(&self) -> &'static str;
    /// Suggested fix attached to every finding of this rule.
    fn remedy(&self) -> &'static str;
    /// Runs the rule, appending findings to `out`.
    fn check(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>);

    /// Static metadata record for SARIF rule declarations.
    fn meta(&self) -> RuleMeta {
        RuleMeta {
            id: self.id(),
            name: self.name(),
            section: self.section(),
            summary: self.summary(),
            remedy: self.remedy(),
        }
    }
}

/// All rules, in id order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(DataBroadcast),
        Box::new(MemoryScatter),
        Box::new(StallBroadcast),
        Box::new(SyncFanin),
    ]
}

/// Metadata of all rules, in id order — the registry a
/// [`Report`](hlsb_findings::Report) carries for SARIF rendering.
pub fn rule_metas() -> Vec<RuleMeta> {
    all_rules().iter().map(|r| r.meta()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_unique() {
        let rules = all_rules();
        assert_eq!(rules.len(), 4);
        let ids: Vec<_> = rules.iter().map(|r| r.id()).collect();
        assert_eq!(ids, ["BA01", "BA02", "PC01", "SY01"]);
        for r in &rules {
            assert!(!r.name().is_empty());
            assert!(r.section().contains('§'), "{} cites no section", r.id());
            assert!(!r.summary().is_empty());
            assert!(!r.remedy().is_empty());
        }
    }
}
