//! Compile against warm-store load, per artifact family.
//!
//! Each row is one `EngineContext` fetch on a fresh context: without an
//! artifact store (the compile) and over a warm `--cache-dir` store (a
//! load, for the families the store keeps). Figures are the median over
//! 11 rounds of the mean µs per fetch, with the cost of building and
//! dropping an empty context subtracted. A family the store does not keep
//! compiles in both columns.
//!
//! ```text
//! cargo run --release -p xmlmap-bench --bin store_costs
//! ```

use std::time::Instant;
use xmlmap_bench::micro::nthlast_dtd;
use xmlmap_core::{EngineContext, Mapping};
use xmlmap_dtd::Dtd;
use xmlmap_gen::{exchange_mapping, exchange_source_dtd, university_dtd, university_target_dtd};

const ROUNDS: usize = 11;

/// Median over [`ROUNDS`] of the mean µs per call of `f` over `n` calls.
fn median_us(n: usize, mut f: impl FnMut()) -> f64 {
    let mut rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..n {
                f();
            }
            start.elapsed().as_secs_f64() * 1e6 / n as f64
        })
        .collect();
    rounds.sort_by(f64::total_cmp);
    rounds[ROUNDS / 2]
}

fn dtd(text: &str) -> Dtd {
    xmlmap_dtd::parse(text).unwrap()
}

type Fetch = Box<dyn Fn(&EngineContext)>;

fn main() {
    let dir = std::env::temp_dir().join(format!("xmlmap-store-costs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fresh = EngineContext::new;
    let warm = || EngineContext::new().with_disk_cache(&dir).unwrap();

    let copy = Mapping::parse(
        "[source]\nroot r\nr -> a*\na @ v\n[target]\nroot r\nr -> b*\nb @ w\n\
         [stds]\nr/a(x) --> r/b(x)\n",
    )
    .unwrap();
    let mut cases: Vec<(&str, &str, usize, Fetch)> = Vec::new();
    for (name, d) in [
        ("university", university_dtd()),
        ("exchange", exchange_source_dtd()),
    ] {
        let d2 = d.clone();
        cases.push(("sat", name, 1000, Box::new(move |c| drop(c.sat_cache(&d)))));
        cases.push((
            "stream_index",
            name,
            1000,
            Box::new(move |c| drop(c.stream_index(&d2))),
        ));
    }
    for (name, m) in [("copy", copy), ("exchange", exchange_mapping())] {
        let (m2, m3) = (m.clone(), m.clone());
        cases.push((
            "chase",
            name,
            1000,
            Box::new(move |c| drop(c.chase_cache(&m))),
        ));
        cases.push((
            "delta",
            name,
            1000,
            Box::new(move |c| drop(c.delta_plan(&m2))),
        ));
        cases.push((
            "stream_chase",
            name,
            1000,
            Box::new(move |c| drop(c.stream_chase_plan(&m3))),
        ));
    }
    let pairs = [
        (
            "a* / a?",
            dtd("root r\nr -> a*\na @ v"),
            dtd("root r\nr -> a?\na @ v"),
            1000,
        ),
        (
            "university / target",
            university_dtd(),
            university_target_dtd(),
            1000,
        ),
        (
            "nthlast10",
            nthlast_dtd(10, false),
            nthlast_dtd(10, true),
            100,
        ),
        (
            "nthlast13",
            nthlast_dtd(13, false),
            nthlast_dtd(13, true),
            10,
        ),
    ];
    for (name, d1, d2, n) in pairs {
        cases.push((
            "automata",
            name,
            n,
            Box::new(move |c| drop(c.automata_cache(&d1, &d2))),
        ));
    }
    let shapes = dtd("root r\nr -> a*, b?\na -> b?\nb @ v");
    cases.push((
        "shapes",
        "r -> a*, b? (bound 9)",
        20,
        Box::new(move |c| drop(c.shape_cache(&shapes).shapes(9))),
    ));

    let empty_fresh = median_us(1000, || drop(fresh()));
    let empty_warm = median_us(1000, || drop(warm()));
    println!("| family | input | compile µs | warm-store µs |");
    println!("|---|---|---|---|");
    for (family, input, n, fetch) in &cases {
        // One cold run fills the store.
        let ctx = warm();
        fetch(&ctx);
        ctx.flush_disk_cache();
        let compile = median_us(*n, || fetch(&fresh())) - empty_fresh;
        let load = median_us(*n, || fetch(&warm())) - empty_warm;
        println!("| {family} | {input} | {compile:.1} | {load:.1} |");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
