//! Error types for simulator construction.

use std::error::Error;
use std::fmt;

use crate::SimTime;

/// Error raised when building or driving a simulation with inconsistent
/// parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetError {
    /// The mobility model covers fewer nodes than the scenario declares.
    MobilityTooSmall {
        /// Nodes requested by the scenario.
        nodes: usize,
        /// Nodes covered by the mobility model.
        covered: usize,
    },
    /// A node index is out of range.
    UnknownNode {
        /// The offending index.
        node: usize,
    },
    /// A fault plan names a node the scenario does not have.
    FaultUnknownNode {
        /// The offending index.
        node: usize,
        /// Nodes in the scenario.
        nodes: usize,
    },
    /// A fault plan recovers a node that is not down at that instant.
    FaultRecoverBeforeCrash {
        /// The offending node.
        node: usize,
        /// When the invalid recovery was scheduled.
        at: SimTime,
    },
    /// A fault plan crashes an already-down node, or two loss bursts with
    /// intersecting scope overlap in time.
    FaultOverlappingWindows {
        /// Where the overlap begins.
        at: SimTime,
    },
    /// A loss burst whose end does not lie after its start.
    FaultBadWindow {
        /// The burst's start time.
        at: SimTime,
    },
    /// A loss probability outside `[0, 1]`.
    FaultBadProbability,
    /// A serialized fault plan failed to parse.
    FaultPlanSyntax {
        /// 1-based line number of the first malformed line.
        line: usize,
    },
    /// A [`ScenarioConfig`](crate::ScenarioConfig) field the engine would
    /// divide by or overflow on (see
    /// [`SimulatorBuilder::try_build`](crate::SimulatorBuilder::try_build)).
    BadConfig {
        /// The offending field, as `phy.data_rate_bps` or `mac.slot`.
        field: &'static str,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::MobilityTooSmall { nodes, covered } => write!(
                f,
                "mobility model covers {covered} nodes but the scenario has {nodes}"
            ),
            NetError::UnknownNode { node } => write!(f, "unknown node index {node}"),
            NetError::FaultUnknownNode { node, nodes } => write!(
                f,
                "fault plan names node {node} but the scenario has {nodes} nodes"
            ),
            NetError::FaultRecoverBeforeCrash { node, at } => write!(
                f,
                "fault plan recovers node {node} at {at} while it is not down"
            ),
            NetError::FaultOverlappingWindows { at } => {
                write!(f, "fault plan has overlapping windows at {at}")
            }
            NetError::FaultBadWindow { at } => {
                write!(f, "fault plan has an empty or inverted window at {at}")
            }
            NetError::FaultBadProbability => {
                write!(f, "fault plan has a loss probability outside [0, 1]")
            }
            NetError::FaultPlanSyntax { line } => {
                write!(f, "fault plan text is malformed at line {line}")
            }
            NetError::BadConfig { field } => {
                write!(f, "scenario config field `{field}` is out of range")
            }
        }
    }
}

impl Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        let e = NetError::MobilityTooSmall {
            nodes: 30,
            covered: 10,
        };
        assert!(e.to_string().contains("30"));
        assert!(NetError::UnknownNode { node: 5 }.to_string().contains('5'));
    }

    #[test]
    fn fault_messages() {
        let e = NetError::FaultUnknownNode { node: 9, nodes: 5 };
        assert!(e.to_string().contains('9'));
        let e = NetError::FaultRecoverBeforeCrash {
            node: 1,
            at: SimTime::from_secs(3),
        };
        assert!(e.to_string().contains("recovers node 1"));
        assert!(NetError::FaultBadProbability.to_string().contains("[0, 1]"));
        assert!(NetError::FaultPlanSyntax { line: 4 }
            .to_string()
            .contains('4'));
    }
}
