//! E3 — election time: O(log* k) PoisonPill election vs Θ(log n) tournament.
fn main() {
    let title = "E3: leader election time (max communicate calls per processor)";
    println!("{title}\n");
    let table = fle_bench::e3_election_time(&[4, 8, 16, 32, 64], 3);
    fle_bench::experiments::report("E3", title, table);
}
