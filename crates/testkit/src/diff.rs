//! Differential equivalence: two configurations, one behaviour.

use cavenet_core::{digest_scenario, scenario_identity, Fidelity, Scenario};

/// Assert that one scenario behaves **bit-identically** under two
/// configurations that are supposed to be equivalent (e.g. neighbor grid
/// on vs. off). Each closure receives a copy of `base` to reconfigure; the
/// two runs must then produce the same event-stream digest.
///
/// # Panics
///
/// Panics with both digests when the runs diverge, and if the base
/// scenario carried no traffic (a vacuous comparison).
pub fn assert_equiv(
    base: &Scenario,
    label_a: &str,
    cfg_a: impl FnOnce(&mut Scenario),
    label_b: &str,
    cfg_b: impl FnOnce(&mut Scenario),
) {
    let mut sa = base.clone();
    cfg_a(&mut sa);
    let mut sb = base.clone();
    cfg_b(&mut sb);
    let a = digest_scenario(&sa);
    let b = digest_scenario(&sb);
    assert!(
        a.result.total_sent() > 0,
        "equivalence check is vacuous: no traffic was sent"
    );
    assert!(
        a.digest == b.digest && a.events == b.events,
        "configurations are not equivalent:\n  {label_a}: digest 0x{:016x}, {} events\n  \
         {label_b}: digest 0x{:016x}, {} events",
        a.digest,
        a.events,
        b.digest,
        b.events,
    );
}

/// Assert the identity semantics of [`scenario_identity`]: the `fidelity`
/// backend knob is digest-relevant (the exact and fluid engines produce
/// different results, so their snapshots must never cross-resume), while
/// the `shards` execution knob is normalized away (it never changes a
/// result, so a snapshot taken under N shards resumes under M).
///
/// # Panics
///
/// Panics if exact and fluid variants of `base` share a scenario hash, or
/// if any shard count in `shard_counts` shifts the hash under either
/// fidelity.
pub fn assert_identity_semantics(base: &Scenario, shard_counts: &[usize]) {
    let identity_of = |fidelity: Fidelity, shards: usize| {
        let mut s = base.clone();
        s.fidelity = fidelity;
        s.shards = shards;
        scenario_identity(&s).scenario_hash
    };
    let exact = identity_of(Fidelity::Exact, base.shards);
    let fluid = identity_of(Fidelity::Fluid, base.shards);
    assert_ne!(
        exact, fluid,
        "fidelity must be digest-relevant: exact and fluid variants of one \
         scenario share identity 0x{exact:016x}"
    );
    for (fidelity, reference) in [(Fidelity::Exact, exact), (Fidelity::Fluid, fluid)] {
        for &shards in shard_counts {
            let got = identity_of(fidelity, shards);
            assert_eq!(
                got,
                reference,
                "shards must be identity-neutral: {shards} shards shifted the \
                 {} identity 0x{reference:016x} to 0x{got:016x}",
                fidelity.name(),
            );
        }
    }
}
