//! Admission control: typed load-shedding at the campaign boundary.
//!
//! A supervised campaign protects itself before it protects its trials:
//! work is rejected at submission time, with a typed reason, rather than
//! accepted and starved. The bounds are deliberately simple — a queue
//! depth and a node budget — because the goal is back-pressure the caller
//! can reason about, not a scheduler.

use cavenet_core::ScenarioError;

/// Why a submitted scenario was not admitted.
#[derive(Debug)]
pub enum AdmissionError {
    /// The pending queue (waiting plus backoff-delayed trials) is at
    /// capacity. Resubmit after some trials drain.
    QueueFull {
        /// The configured queue capacity that was hit.
        capacity: usize,
    },
    /// Admitting this scenario would push the total node count of queued
    /// and running trials over the server's memory budget. Smaller trials
    /// may still be admitted — this is load shedding, not a hard stop.
    OverBudget {
        /// Nodes requested by the rejected scenario.
        requested: u64,
        /// Nodes already admitted (queued + running).
        admitted: u64,
        /// The configured budget.
        budget: u64,
    },
    /// The scenario failed validation — it would be quarantined after
    /// three deterministic failures, so it is cheaper to refuse it
    /// outright.
    Invalid(ScenarioError),
    /// The server is shutting down and accepts no new work.
    ShuttingDown,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::QueueFull { capacity } => {
                write!(f, "queue full: {capacity} trials already pending")
            }
            AdmissionError::OverBudget {
                requested,
                admitted,
                budget,
            } => write!(
                f,
                "over node budget: {requested} requested, {admitted} admitted, budget {budget}"
            ),
            AdmissionError::Invalid(e) => write!(f, "invalid scenario: {e}"),
            AdmissionError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for AdmissionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AdmissionError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_limit() {
        assert!(AdmissionError::QueueFull { capacity: 4 }
            .to_string()
            .contains('4'));
        let over = AdmissionError::OverBudget {
            requested: 30,
            admitted: 100,
            budget: 120,
        };
        for n in ["30", "100", "120"] {
            assert!(over.to_string().contains(n), "{over}");
        }
        assert!(AdmissionError::ShuttingDown
            .to_string()
            .contains("shutting down"));
    }
}
