//! E7 — the Ω(kn) message lower bound (Corollary B.3) as an empirical sanity check.
fn main() {
    let title = "E7: measured messages vs the kn/16 lower bound";
    println!("{title}\n");
    let table = fle_bench::e7_lower_bound_check(&[8, 16, 32, 48], 3);
    fle_bench::experiments::report("E7", title, table);
}
