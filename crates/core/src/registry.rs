//! The metric model and technique registry.

use std::fmt;

/// One measured operating point in the tutorial's metric space.
///
/// Quality metrics are "higher is better"; resource metrics are "lower is
/// better". Fields default to the neutral value so partial measurements
/// (e.g. a technique that doesn't touch energy) stay honest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// Task accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// Training cost in FLOPs.
    pub train_flops: u64,
    /// Inference cost in FLOPs per input.
    pub inference_flops: u64,
    /// Model (parameter) memory in bytes.
    pub memory_bytes: u64,
    /// Training energy in kWh (0 when not measured).
    pub energy_kwh: f64,
}

impl Metrics {
    /// A neutral point (useful as a builder start).
    pub fn new(accuracy: f64) -> Self {
        Metrics {
            accuracy,
            train_flops: 0,
            inference_flops: 0,
            memory_bytes: 0,
            energy_kwh: 0.0,
        }
    }

    /// True when `self` dominates `other`: at least as good on every
    /// metric and strictly better on at least one.
    pub fn dominates(&self, other: &Metrics) -> bool {
        let ge = self.accuracy >= other.accuracy
            && self.train_flops <= other.train_flops
            && self.inference_flops <= other.inference_flops
            && self.memory_bytes <= other.memory_bytes
            && self.energy_kwh <= other.energy_kwh;
        let strict = self.accuracy > other.accuracy
            || self.train_flops < other.train_flops
            || self.inference_flops < other.inference_flops
            || self.memory_bytes < other.memory_bytes
            || self.energy_kwh < other.energy_kwh;
        ge && strict
    }
}

/// The tutorial's technique taxonomy (§2.1-2.3 plus Part 2/3 additions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Baseline measurements (uncompressed / single model / etc.).
    Baseline,
    /// Quantization, pruning, distillation (accuracy vs. time/memory).
    Compression,
    /// Fast ensemble training.
    Ensemble,
    /// Communication-relaxing distributed training.
    Distributed,
    /// Optimize-then-run (placement search, structure search).
    Optimization,
    /// Training-time vs. memory (rematerialization, offloading).
    MemorySchedule,
    /// Learned data-system components.
    LearnedComponent,
    /// Fairness interventions.
    Fairness,
    /// Carbon/energy interventions.
    Green,
    /// Fault tolerance: checkpointing, elastic membership, recovery.
    Robustness,
    /// Observability: tracing, metrics, flight recording (techniques that
    /// spend resources to make every other tradeoff measurable).
    Observability,
    /// Inference serving: batching, variant selection, admission control
    /// (throughput vs. tail latency vs. accuracy at deploy time).
    Serving,
    /// Compute-backend systems work: parallel execution, cache blocking,
    /// kernel scheduling (wall-clock time for identical numerics).
    Systems,
}

/// A named, categorized measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Technique {
    /// Unique name, e.g. `"quant-int8"`.
    pub name: String,
    /// Taxonomy bucket.
    pub category: Category,
    /// Measured metrics.
    pub metrics: Metrics,
    /// Name of the baseline this was measured against, if any.
    pub baseline: Option<String>,
}

/// Registry errors.
#[derive(Debug)]
pub enum RegistryError {
    /// A technique with the same name is already registered.
    Duplicate(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Duplicate(n) => write!(f, "technique {n:?} already registered"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// The technique collection.
///
/// ```
/// use dl_core::{Category, Metrics, Registry, Technique, TradeoffNavigator, Constraint};
/// let mut registry = Registry::new();
/// registry.add(Technique {
///     name: "fp32".into(),
///     category: Category::Baseline,
///     metrics: Metrics { accuracy: 0.95, train_flops: 100, inference_flops: 10,
///                        memory_bytes: 400, energy_kwh: 0.0 },
///     baseline: None,
/// }).unwrap();
/// registry.add(Technique {
///     name: "int8".into(),
///     category: Category::Compression,
///     metrics: Metrics { accuracy: 0.94, train_flops: 100, inference_flops: 10,
///                        memory_bytes: 100, energy_kwh: 0.0 },
///     baseline: Some("fp32".into()),
/// }).unwrap();
/// let nav = TradeoffNavigator::new(&registry);
/// let pick = nav.recommend(&[Constraint::MaxMemoryBytes(200)]).unwrap();
/// assert_eq!(pick.name, "int8");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Registry {
    techniques: Vec<Technique>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers a technique; names must be unique.
    pub fn add(&mut self, technique: Technique) -> Result<(), RegistryError> {
        if self.techniques.iter().any(|t| t.name == technique.name) {
            return Err(RegistryError::Duplicate(technique.name));
        }
        self.techniques.push(technique);
        Ok(())
    }

    /// All techniques, in registration order.
    pub fn techniques(&self) -> &[Technique] {
        &self.techniques
    }

    /// Techniques in one category.
    pub fn by_category(&self, category: Category) -> Vec<&Technique> {
        self.techniques
            .iter()
            .filter(|t| t.category == category)
            .collect()
    }

    /// Looks a technique up by name.
    pub fn get(&self, name: &str) -> Option<&Technique> {
        self.techniques.iter().find(|t| t.name == name)
    }

    /// Number of registered techniques.
    pub fn len(&self) -> usize {
        self.techniques.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.techniques.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(name: &str, acc: f64, mem: u64) -> Technique {
        Technique {
            name: name.into(),
            category: Category::Compression,
            metrics: Metrics {
                accuracy: acc,
                train_flops: 100,
                inference_flops: 10,
                memory_bytes: mem,
                energy_kwh: 0.0,
            },
            baseline: None,
        }
    }

    #[test]
    fn dominance_requires_strictness() {
        let a = t("a", 0.9, 100).metrics;
        assert!(!a.dominates(&a), "a point never dominates itself");
        let better = t("b", 0.95, 100).metrics;
        assert!(better.dominates(&a));
        assert!(!a.dominates(&better));
    }

    #[test]
    fn dominance_fails_on_tradeoffs() {
        let fast_small = t("a", 0.8, 50).metrics;
        let accurate_big = t("b", 0.95, 500).metrics;
        assert!(!fast_small.dominates(&accurate_big));
        assert!(!accurate_big.dominates(&fast_small));
    }

    #[test]
    fn registry_rejects_duplicates() {
        let mut r = Registry::new();
        r.add(t("x", 0.9, 10)).unwrap();
        let err = r.add(t("x", 0.8, 20)).unwrap_err();
        assert!(matches!(err, RegistryError::Duplicate(_)));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn category_filter_and_lookup() {
        let mut r = Registry::new();
        r.add(t("a", 0.9, 10)).unwrap();
        let mut b = t("b", 0.8, 5);
        b.category = Category::Ensemble;
        r.add(b).unwrap();
        assert_eq!(r.by_category(Category::Compression).len(), 1);
        assert_eq!(r.by_category(Category::Ensemble).len(), 1);
        assert!(r.get("a").is_some());
        assert!(r.get("zzz").is_none());
    }
}
