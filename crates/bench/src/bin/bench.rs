//! `bench <name>|all`: runs the headline benchmarks, writes each one's
//! `BENCH_<name>.json` to the current directory, prints its table (or,
//! where it has none, the document) and its claims. Exits 1 if any claim
//! fails.

use wdtg_bench::runners::HEADLINES;
use wdtg_bench::selector;
use wdtg_core::render_claims;

fn main() {
    let names: Vec<&str> = HEADLINES.iter().map(|(n, _)| *n).chain(["all"]).collect();
    let chosen = selector("bench", &names);
    let mut failed = 0;
    for (name, run) in HEADLINES
        .iter()
        .filter(|(n, _)| chosen == "all" || chosen == *n)
    {
        println!("== bench {name} ==");
        let h = run();
        let file = format!("BENCH_{name}.json");
        let doc = format!("{}\n", h.doc);
        std::fs::write(&file, &doc).unwrap_or_else(|e| panic!("write {file}: {e}"));
        print!("{}", h.table.unwrap_or(doc));
        println!("wrote {file}\n{}", render_claims(&h.checks));
        failed += h.checks.iter().filter(|c| !c.pass).count();
    }
    std::process::exit(if failed == 0 { 0 } else { 1 });
}
