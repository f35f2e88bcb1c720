//! The scenario registry: every experiment family, discoverable by name.

use crate::highway::HighwayScenario;
use crate::multi_ap::MultiApScenario;
use crate::scenario::Scenario;
use crate::urban::UrbanScenario;

/// A name-indexed collection of [`Scenario`]s.
///
/// The registry is what makes scenarios first-class for tooling: the CLI's
/// `scenario list` / `describe` / `run` subcommands, preset catalogues and
/// sweeps all look experiments up here instead of hard-coding types. Adding
/// a scenario to the platform is implementing [`Scenario`] and registering
/// it — nothing else needs to learn its name.
#[derive(Default)]
pub struct ScenarioRegistry {
    scenarios: Vec<Box<dyn Scenario>>,
}

impl std::fmt::Debug for ScenarioRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioRegistry").field("names", &self.names()).finish()
    }
}

/// A name as lookups compare it: forgiving about separators and case
/// (`multi-ap`, `multi_ap` and `MultiAp` all resolve) but never about the
/// name itself. The scenario registry and the world-generator catalogue
/// both look names up through it.
pub fn normalize(name: &str) -> String {
    name.chars().filter(|c| *c != '-' && *c != '_').flat_map(char::to_lowercase).collect()
}

impl ScenarioRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ScenarioRegistry::default()
    }

    /// The registry of built-in scenarios at their paper-default base
    /// configurations: `urban`, `highway` and `multi-ap`.
    pub fn builtin() -> Self {
        let mut registry = ScenarioRegistry::new();
        registry.register(Box::new(UrbanScenario::paper_testbed()));
        registry.register(Box::new(HighwayScenario::drive_thru()));
        registry.register(Box::new(MultiApScenario::default_download()));
        registry
    }

    /// Adds a scenario.
    ///
    /// # Panics
    ///
    /// Panics if a scenario with the same (normalized) name is already
    /// registered.
    pub fn register(&mut self, scenario: Box<dyn Scenario>) {
        assert!(
            self.get(scenario.name()).is_none(),
            "scenario `{}` registered twice",
            scenario.name()
        );
        self.scenarios.push(scenario);
    }

    /// Looks a scenario up by name (separator- and case-insensitive).
    pub fn get(&self, name: &str) -> Option<&dyn Scenario> {
        let wanted = normalize(name);
        self.scenarios.iter().find(|s| normalize(s.name()) == wanted).map(Box::as_ref)
    }

    /// The registered names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.scenarios.iter().map(|s| s.name()).collect()
    }

    /// Iterates over the registered scenarios, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Scenario> {
        self.scenarios.iter().map(Box::as_ref)
    }

    /// Number of registered scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_registry_has_all_three_scenarios() {
        let registry = ScenarioRegistry::builtin();
        assert_eq!(registry.names(), vec!["urban", "highway", "multi-ap"]);
        assert_eq!(registry.len(), 3);
        assert!(!registry.is_empty());
        for name in registry.names() {
            let scenario = registry.get(name).unwrap();
            assert!(!scenario.description().is_empty());
            assert!(!scenario.schema().params().is_empty());
            assert_eq!(scenario.schema().scenario(), name);
        }
    }

    #[test]
    fn lookup_ignores_separators_and_case() {
        let registry = ScenarioRegistry::builtin();
        for alias in ["multi-ap", "multi_ap", "multiap", "MULTI-AP"] {
            assert_eq!(registry.get(alias).map(|s| s.name()), Some("multi-ap"), "{alias}");
        }
        assert!(registry.get("mars").is_none());
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_rejected() {
        let mut registry = ScenarioRegistry::builtin();
        registry.register(Box::new(UrbanScenario::paper_testbed()));
    }
}
