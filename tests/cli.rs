//! End-to-end tests of the `xmlmap` command-line tool.

use std::io::Write;
use std::process::Command;

struct Fixture {
    dir: std::path::PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Fixture {
        let dir = std::env::temp_dir().join(format!("xmlmap-cli-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Fixture { dir }
    }

    fn file(&self, name: &str, contents: &str) -> String {
        let path = self.dir.join(name);
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(contents.as_bytes()).unwrap();
        path.to_string_lossy().into_owned()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn xmlmap(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_xmlmap"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

const COPY_MAP: &str = "
[source]
root r
r -> a*
a @ v
[target]
root r
r -> b*
b @ w
[stds]
r/a(x) --> r/b(x)
";

#[test]
fn validate_accepts_and_rejects() {
    let fx = Fixture::new("validate");
    let dtd = fx.file("d.dtd", "root r\nr -> a*\na @ v");
    let good = fx.file("good.xml", r#"<r><a v="1"/></r>"#);
    let bad = fx.file("bad.xml", r#"<r><z/></r>"#);

    let (code, stdout, _) = xmlmap(&["validate", &dtd, &good]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("valid"));

    let (code, stdout, _) = xmlmap(&["validate", &dtd, &bad]);
    assert_eq!(code, 1);
    assert!(stdout.contains("invalid"));
}

#[test]
fn match_prints_valuations() {
    let fx = Fixture::new("match");
    let doc = fx.file("doc.xml", r#"<r><a v="1"/><a v="2"/></r>"#);
    let (code, stdout, _) = xmlmap(&["match", "r/a(x)", &doc]);
    assert_eq!(code, 0);
    assert!(stdout.contains("x=1"));
    assert!(stdout.contains("x=2"));
    assert!(stdout.contains("2 match(es)"));

    let (code, stdout, _) = xmlmap(&["match", "r/zz(x)", &doc]);
    assert_eq!(code, 1);
    assert!(stdout.contains("0 match(es)"));
}

#[test]
fn check_chase_and_certain() {
    let fx = Fixture::new("chase");
    let map = fx.file("copy.map", COPY_MAP);
    let src = fx.file("src.xml", r#"<r><a v="1"/><a v="2"/></r>"#);
    let good = fx.file("good.xml", r#"<r><b w="1"/><b w="2"/></r>"#);
    let bad = fx.file("bad.xml", r#"<r><b w="1"/></r>"#);

    let (code, _, _) = xmlmap(&["check", &map, &src, &good]);
    assert_eq!(code, 0);
    let (code, _, _) = xmlmap(&["check", &map, &src, &bad]);
    assert_eq!(code, 1);

    let (code, stdout, _) = xmlmap(&["chase", &map, &src]);
    assert_eq!(code, 0);
    assert!(stdout.contains(r#"<b w="1"/>"#), "{stdout}");
    assert!(stdout.contains(r#"<b w="2"/>"#));

    let (code, stdout, _) = xmlmap(&["certain", &map, &src, "r/b(x)"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("2 certain answer(s)"));
}

#[test]
fn consistent_and_abscons() {
    let fx = Fixture::new("cons");
    let map = fx.file("copy.map", COPY_MAP);
    let (code, stdout, _) = xmlmap(&["consistent", &map]);
    assert_eq!(code, 0);
    assert!(stdout.contains("consistent"));

    let (code, stdout, _) = xmlmap(&["abscons", &map]);
    assert_eq!(code, 0);
    assert!(stdout.contains("absolutely consistent"));

    // The §6 counterexample through the CLI.
    let narrow = fx.file(
        "narrow.map",
        "
[source]
root r
r -> a*
a @ v
[target]
root r
r -> a
a @ v
[stds]
r/a(x) --> r/a(x)
",
    );
    let (code, stdout, _) = xmlmap(&["abscons", &narrow]);
    assert_eq!(code, 1);
    assert!(stdout.contains("NOT absolutely consistent"), "{stdout}");
    // …but still consistent.
    let (code, _, _) = xmlmap(&["consistent", &narrow]);
    assert_eq!(code, 0);
}

#[test]
fn compose_prints_stds() {
    let fx = Fixture::new("compose");
    let m12 = fx.file(
        "m12.map",
        "
[source]
root r
r -> a*
a @ v
[target]
root m
m -> b*
b @ w
[stds]
r/a(x) --> m/b(x)
",
    );
    let m23 = fx.file(
        "m23.map",
        "
[source]
root m
m -> b*
b @ w
[target]
root w
w -> c*
c @ u
[stds]
m/b(x) --> w/c(x)
",
    );
    let (code, stdout, _) = xmlmap(&["compose", &m12, &m23]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("1 stds"), "{stdout}");
    assert!(stdout.contains("-->"), "{stdout}");
}

/// Writes the standard batch fixture set and returns the jobfile path.
fn batch_fixture(fx: &Fixture) -> String {
    fx.file("copy.map", COPY_MAP);
    fx.file("src.xml", r#"<r><a v="1"/><a v="2"/></r>"#);
    fx.file("tgt.xml", r#"<r><b w="1"/><b w="2"/></r>"#);
    fx.file("d.dtd", "root r\nr -> a*\na @ v");
    fx.file(
        "jobs.txt",
        "# batch fixture\n\
         member copy.map src.xml tgt.xml\n\
         consistent copy.map\n\
         abscons copy.map\n\
         subschema d.dtd d.dtd\n",
    )
}

#[test]
fn batch_runs_a_jobfile() {
    let fx = Fixture::new("batch");
    let jobs = batch_fixture(&fx);

    let (code, stdout, stderr) = xmlmap(&["batch", &jobs, "--stats"]);
    assert_eq!(code, 0, "stdout: {stdout}\nstderr: {stderr}");
    assert!(
        stdout.contains("[1] member copy.map src.xml tgt.xml: solution"),
        "{stdout}"
    );
    assert!(
        stdout.contains("[4] subschema d.dtd d.dtd: subschema holds"),
        "{stdout}"
    );
    assert!(
        stdout.ends_with("-- 4 job(s): 4 yes, 0 no, 0 failed\n"),
        "{stdout}"
    );
    // --stats goes to stderr, never into the deterministic stdout.
    assert!(stderr.contains("engine cache stats"), "{stderr}");
    assert!(stderr.contains("misses"), "{stderr}");
    assert!(!stdout.contains("engine cache stats"));
}

#[test]
fn batch_worker_counts_produce_identical_stdout() {
    let fx = Fixture::new("batch-workers");
    let jobs = batch_fixture(&fx);

    let (code_default, out_default, _) = xmlmap(&["batch", &jobs]);
    let (code_1, out_1, _) = xmlmap(&["batch", &jobs, "--workers", "1"]);
    let (code_4, out_4, _) = xmlmap(&["batch", &jobs, "--workers", "4"]);
    assert_eq!((code_default, code_1, code_4), (0, 0, 0));
    assert_eq!(
        out_1, out_default,
        "--workers 1 must match the default worker count"
    );
    assert_eq!(
        out_4, out_default,
        "--workers 4 must match the default worker count"
    );
}

#[test]
fn batch_malformed_jobfile_exits_2_with_per_line_errors() {
    let fx = Fixture::new("batch-malformed");
    fx.file("copy.map", COPY_MAP);
    let jobs = fx.file(
        "jobs.txt",
        "consistent copy.map\n\
         frobnicate copy.map\n\
         consistent missing.map\n\
         subschema lonely.dtd\n",
    );

    let (code, stdout, stderr) = xmlmap(&["batch", &jobs]);
    assert_eq!(
        code, 2,
        "malformed jobfiles are usage errors\nstderr: {stderr}"
    );
    assert_eq!(stdout, "", "no job may run when the jobfile is malformed");
    assert!(stderr.contains("3 malformed job(s)"), "{stderr}");
    assert!(
        stderr.contains("line 2") && stderr.contains("unknown operation"),
        "{stderr}"
    );
    assert!(
        stderr.contains("line 3") && stderr.contains("cannot read"),
        "{stderr}"
    );
    assert!(
        stderr.contains("line 4") && stderr.contains("wrong number of arguments"),
        "{stderr}"
    );
}

#[test]
fn batch_failed_job_exits_1_and_spares_the_rest() {
    let fx = Fixture::new("batch-failed");
    fx.file("copy.map", COPY_MAP);
    // Data comparisons make CONS undecidable (Thm 5.4): a clean,
    // deterministic per-job failure independent of any budget.
    fx.file(
        "cmp.map",
        "
[source]
root r
r -> a*
a @ v
[target]
root r
r -> b*
b @ w
[stds]
r[a(x), a(y)] ; x != y --> r/b(x)
",
    );
    let jobs = fx.file(
        "jobs.txt",
        "consistent copy.map\n\
         consistent cmp.map\n\
         abscons copy.map\n",
    );

    let (code, stdout, _) = xmlmap(&["batch", &jobs]);
    assert_eq!(
        code, 1,
        "a failed job must surface in the exit status\n{stdout}"
    );
    assert!(
        stdout.contains("[2] consistent cmp.map: error:"),
        "{stdout}"
    );
    assert!(
        stdout.ends_with("-- 3 job(s): 2 yes, 0 no, 1 failed\n"),
        "{stdout}"
    );
}

/// The `--stats` line of one family, e.g. `automata: 0 hits, …`.
fn family_line<'a>(stats: &'a str, label: &str) -> &'a str {
    stats
        .lines()
        .find(|l| l.starts_with(&format!("{label}:")))
        .unwrap_or_else(|| panic!("no {label} line in {stats}"))
}

#[test]
fn batch_disk_cache_second_run_compiles_nothing() {
    let fx = Fixture::new("batch-disk");
    let jobs = batch_fixture(&fx);
    let cache_dir = fx.dir.join("cache");
    let cache = cache_dir.to_string_lossy().into_owned();

    let (code, out_cold, err_cold) = xmlmap(&["batch", &jobs, "--cache-dir", &cache, "--stats"]);
    assert_eq!(code, 0, "{err_cold}");
    assert!(
        family_line(&err_cold, "automata").contains("(1 compiled, 0 from disk)"),
        "cold run must compile the automata: {err_cold}"
    );
    assert!(err_cold.contains("loaded from disk"), "{err_cold}");
    // Only the costly families are stored.
    for entry in std::fs::read_dir(&cache_dir).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(
            name.starts_with("automata-") || name.starts_with("shapes-"),
            "unexpected store file {name}"
        );
    }

    // Second process, same directory: the automata come off disk.
    let (code, out_warm, err_warm) = xmlmap(&["batch", &jobs, "--cache-dir", &cache, "--stats"]);
    assert_eq!(code, 0, "{err_warm}");
    assert_eq!(out_warm, out_cold, "warm run must be byte-identical");
    assert!(
        family_line(&err_warm, "automata").contains("(0 compiled, 1 from disk)"),
        "warm run must not compile the automata: {err_warm}"
    );
}

#[test]
fn batch_disk_cache_survives_corrupt_artifacts() {
    let fx = Fixture::new("batch-disk-corrupt");
    let jobs = batch_fixture(&fx);
    let cache_dir = fx.dir.join("cache");
    let cache = cache_dir.to_string_lossy().into_owned();

    let (code, out_cold, _) = xmlmap(&["batch", &jobs, "--cache-dir", &cache, "--stats"]);
    assert_eq!(code, 0);

    // Truncate every stored artifact to garbage.
    let mut damaged = 0;
    for entry in std::fs::read_dir(&cache_dir).unwrap() {
        let path = entry.unwrap().path();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        damaged += 1;
    }
    assert!(damaged > 0, "the cold run must have persisted artifacts");

    let (code, out_warm, err_warm) = xmlmap(&["batch", &jobs, "--cache-dir", &cache, "--stats"]);
    assert_eq!(
        code, 0,
        "corrupt artifacts must not fail the run: {err_warm}"
    );
    assert_eq!(out_warm, out_cold, "results are unaffected by corruption");
    let automata = family_line(&err_warm, "automata");
    assert!(
        automata.contains("unusable disk artifacts"),
        "corruption is diagnosed in the stats: {err_warm}"
    );
    assert!(
        automata.contains("(1 compiled, 0 from disk)"),
        "corrupt artifacts force recompilation: {err_warm}"
    );
}

#[test]
fn batch_cache_budget_bounds_memory_without_changing_results() {
    let fx = Fixture::new("batch-budget");
    let jobs = batch_fixture(&fx);

    let (code_free, out_free, _) = xmlmap(&["batch", &jobs, "--stats"]);
    let (code_tight, out_tight, err_tight) =
        xmlmap(&["batch", &jobs, "--cache-budget", "1K", "--stats"]);
    assert_eq!((code_free, code_tight), (0, 0), "{err_tight}");
    assert_eq!(
        out_tight, out_free,
        "a bounded context must return byte-identical results"
    );
    assert!(err_tight.contains("budget 1000"), "{err_tight}");

    let (code, _, stderr) = xmlmap(&["batch", &jobs, "--cache-budget", "lots"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("not a byte count"), "{stderr}");
}

#[test]
fn batch_usage_errors() {
    let (code, _, stderr) = xmlmap(&["batch"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("usage"), "{stderr}");

    let fx = Fixture::new("batch-usage");
    let jobs = batch_fixture(&fx);
    let (code, _, stderr) = xmlmap(&["batch", &jobs, "--workers", "lots"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("not a number"), "{stderr}");
}

#[test]
fn usage_errors() {
    let (code, _, stderr) = xmlmap(&["bogus"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("usage"));

    let (code, _, stderr) = xmlmap(&["validate", "/nonexistent.dtd", "/nonexistent.xml"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("cannot read"));
}
