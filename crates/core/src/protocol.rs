//! Common interface over the two protocol analyses.

use core::fmt;

use ringrt_model::MessageSet;

/// The verdict of one test on one message set with every length scaled by
/// `α`, as returned by [`SchedulabilityTest::scaling_probe`].
pub type ScalingProbe<'a> = Box<dyn Fn(f64) -> bool + Sync + 'a>;

/// A protocol-specific schedulability criterion.
///
/// Implementors decide whether a synchronous message set can be
/// *guaranteed* — every message of every stream always transmitted before
/// its deadline — under worst-case phasing and asynchronous interference.
/// The Monte-Carlo breakdown-utilization estimator drives this trait
/// generically over both protocols, from pool workers: a test is `Sync`.
pub trait SchedulabilityTest: Sync {
    /// Returns `true` iff the message set is guaranteed by the protocol.
    fn is_schedulable(&self, set: &MessageSet) -> bool;

    /// Human-readable protocol name (Figure 1 legend style).
    fn protocol_name(&self) -> &'static str;

    /// The verdict over the length scale `α` for one set: `probe(α)` must
    /// equal `self.is_schedulable(&set.with_scaled_lengths(α))` for every
    /// `α`, from any thread and in any call order.
    ///
    /// The saturation search probes one set at ~20 scales; an override may
    /// prepare whatever does not depend on `α` once. The default is the
    /// definition itself.
    fn scaling_probe<'a>(&'a self, set: &'a MessageSet) -> ScalingProbe<'a> {
        Box::new(move |alpha| self.is_schedulable(&set.with_scaled_lengths(alpha)))
    }
}

impl<T: SchedulabilityTest + ?Sized> SchedulabilityTest for &T {
    fn is_schedulable(&self, set: &MessageSet) -> bool {
        (**self).is_schedulable(set)
    }
    fn protocol_name(&self) -> &'static str {
        (**self).protocol_name()
    }
    fn scaling_probe<'a>(&'a self, set: &'a MessageSet) -> ScalingProbe<'a> {
        (**self).scaling_probe(set)
    }
}

impl<T: SchedulabilityTest + ?Sized> SchedulabilityTest for Box<T> {
    fn is_schedulable(&self, set: &MessageSet) -> bool {
        (**self).is_schedulable(set)
    }
    fn protocol_name(&self) -> &'static str {
        (**self).protocol_name()
    }
    fn scaling_probe<'a>(&'a self, set: &'a MessageSet) -> ScalingProbe<'a> {
        (**self).scaling_probe(set)
    }
}

/// The two protocol families compared by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Priority-driven protocol (IEEE 802.5 family).
    PriorityDriven,
    /// Timed token protocol (FDDI family).
    TimedToken,
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Protocol::PriorityDriven => f.write_str("priority driven protocol"),
            Protocol::TimedToken => f.write_str("timed token protocol"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(
            Protocol::PriorityDriven.to_string(),
            "priority driven protocol"
        );
        assert_eq!(Protocol::TimedToken.to_string(), "timed token protocol");
    }

    #[test]
    fn trait_object_safe() {
        // The trait must remain usable as `&dyn SchedulabilityTest`.
        fn _takes_dyn(_t: &dyn SchedulabilityTest) {}
    }
}
