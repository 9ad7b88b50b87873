//! `acn-sim` — command-line driver for the adaptive counting network.
//!
//! Subcommands:
//!
//! - `run [--width W] [--nodes N] [--grow G] [--shrink S] [--tokens T]
//!   [--seed X]` — boot a full message-passing deployment, apply a
//!   grow/shrink churn schedule with traffic, and print the protocol
//!   report.
//! - `converge [--width W] [--seed X] N...` — print the converged
//!   network snapshot (components, levels, effective dimensions) for
//!   each system size.
//! - `estimate [--seed X] N...` — run the decentralized size estimator
//!   on seeded rings and print the accuracy bands.
//!
//! Everything is deterministic given `--seed`.

use std::process::ExitCode;

use adaptive_counting_networks::bitonic::step::is_step_sequence;
use adaptive_counting_networks::core::dist::Deployment;
use adaptive_counting_networks::core::ConvergedNetwork;
use adaptive_counting_networks::estimator::{estimate_size, ideal_level};
use adaptive_counting_networks::overlay::{splitmix64, NodeId, Ring};

struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let value = it
                    .next()
                    .ok_or_else(|| format!("flag --{name} needs a value"))?;
                flags.push((name.to_owned(), value.clone()));
            } else {
                positional.push(arg.clone());
            }
        }
        Ok(Args { flags, positional })
    }

    fn get(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.flags.iter().find(|(n, _)| n == name) {
            None => Ok(default),
            Some((_, v)) => v
                .parse()
                .map_err(|_| format!("--{name} expects an integer, got {v:?}")),
        }
    }
}

fn usage() -> &'static str {
    "usage: acn-sim <run|converge|estimate> [flags] [args]\n\
     \n\
     acn-sim run      [--width 64] [--nodes 4] [--grow 28] [--shrink 24] [--tokens 300] [--seed 1]\n\
     acn-sim converge [--width 8192] [--seed 1] <N>...\n\
     acn-sim estimate [--seed 1] <N>...\n"
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let width = args.get("width", 64)? as usize;
    let nodes = args.get("nodes", 4)? as usize;
    let grow = args.get("grow", 28)? as usize;
    let shrink = args.get("shrink", 24)? as usize;
    let tokens = args.get("tokens", 300)?;
    let seed = args.get("seed", 1)?;
    if !width.is_power_of_two() || width < 2 {
        return Err(format!("--width must be a power of two >= 2, got {width}"));
    }
    if shrink >= nodes + grow {
        return Err("churn schedule would empty the overlay".to_owned());
    }
    println!("booting deployment: width {width}, {nodes} nodes, seed {seed}");
    let mut d = Deployment::new(width, nodes, seed);
    d.settle(100);
    let mut s = seed ^ 0x1234;
    let mut injected = 0u64;
    let phase_tokens = tokens / 3;
    let inject = |d: &mut Deployment, n: u64, injected: &mut u64, s: &mut u64| {
        for _ in 0..n {
            d.inject((splitmix64(s) as usize) % width);
            *injected += 1;
            d.run_for(40);
        }
    };
    inject(&mut d, phase_tokens, &mut injected, &mut s);
    println!("growing by {grow} nodes...");
    for _ in 0..grow {
        d.join_node();
        d.run_for(200);
    }
    d.settle(200);
    inject(&mut d, phase_tokens, &mut injected, &mut s);
    println!("shrinking by {shrink} nodes...");
    let victims: Vec<NodeId> = d.world.borrow().ring.nodes().take(shrink).collect();
    for v in victims {
        d.leave_node(v);
        d.run_for(200);
        d.run_for(2 * d.level_period);
    }
    d.settle(300);
    inject(&mut d, tokens - injected, &mut injected, &mut s);
    d.settle(100);
    d.run_for(500_000);

    let (cut, _) = d.live_cut();
    let world = d.world.borrow();
    let c = d.collector();
    println!("--- report ---");
    println!("nodes: {}", world.ring.len());
    println!(
        "components: {} (levels {}..{})",
        cut.leaves().len(),
        cut.min_level(),
        cut.max_level()
    );
    println!("splits: {}  merges: {}", world.splits_done, world.merges_done);
    println!("dht lookups: {}  routing nacks: {}", world.dht_lookups, world.token_nacks);
    println!("tokens injected: {injected}  exited: {}", c.total());
    if c.total() > 0 {
        println!(
            "latency: mean {} max {} (sim units)",
            c.total_latency / c.total(),
            c.max_latency
        );
    }
    println!("step property: {}", is_step_sequence(&c.counts));
    if c.total() != injected {
        return Err("token conservation violated".to_owned());
    }
    Ok(())
}

fn cmd_converge(args: &Args) -> Result<(), String> {
    let width = args.get("width", 8192)? as usize;
    let seed = args.get("seed", 1)?;
    if args.positional.is_empty() {
        return Err("converge needs at least one system size".to_owned());
    }
    println!(
        "{:>8} {:>11} {:>8} {:>8} {:>10} {:>10} {:>10}",
        "N", "components", "levels", "l*", "eff width", "eff depth", "max/node"
    );
    for raw in &args.positional {
        let n: usize = raw.parse().map_err(|_| format!("bad system size {raw:?}"))?;
        let mut ring = Ring::new();
        let mut s = seed + n as u64;
        for _ in 0..n {
            ring.add_random_node(&mut s);
        }
        let net = ConvergedNetwork::new(width, ring);
        let snap = net.snapshot();
        println!(
            "{:>8} {:>11} {:>8} {:>8} {:>10} {:>10} {:>10}",
            n,
            snap.components,
            format!("{}..{}", snap.min_level, snap.max_level),
            snap.ideal_level,
            snap.effective_width,
            snap.effective_depth,
            snap.max_components_per_node
        );
    }
    Ok(())
}

fn cmd_estimate(args: &Args) -> Result<(), String> {
    let seed = args.get("seed", 1)?;
    if args.positional.is_empty() {
        return Err("estimate needs at least one system size".to_owned());
    }
    println!("{:>8} {:>10} {:>10} {:>10} {:>6}", "N", "min ratio", "max ratio", "in [1/10,10]", "l*");
    for raw in &args.positional {
        let n: usize = raw.parse().map_err(|_| format!("bad system size {raw:?}"))?;
        let mut ring = Ring::new();
        let mut s = seed + 31 * n as u64;
        for _ in 0..n {
            ring.add_random_node(&mut s);
        }
        let mut min_ratio = f64::INFINITY;
        let mut max_ratio: f64 = 0.0;
        let mut inside = 0usize;
        for node in ring.nodes().collect::<Vec<_>>() {
            let ratio = estimate_size(&ring, node).size / n as f64;
            min_ratio = min_ratio.min(ratio);
            max_ratio = max_ratio.max(ratio);
            if (0.1..=10.0).contains(&ratio) {
                inside += 1;
            }
        }
        println!(
            "{:>8} {:>10.3} {:>10.3} {:>12.4} {:>6}",
            n,
            min_ratio,
            max_ratio,
            inside as f64 / n as f64,
            ideal_level(n)
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    let args = match Args::parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "run" => cmd_run(&args),
        "converge" => cmd_converge(&args),
        "estimate" => cmd_estimate(&args),
        _ => Err(format!("unknown subcommand {cmd:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            ExitCode::FAILURE
        }
    }
}
