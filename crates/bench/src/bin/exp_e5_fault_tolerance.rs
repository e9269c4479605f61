//! E5 — fault tolerance and linearizability under ⌈n/2⌉−1 crashes.
fn main() {
    let title = "E5: crash tolerance and linearizability of the election";
    println!("{title}\n");
    let table = fle_bench::e5_fault_tolerance(&[5, 9, 17], 10);
    fle_bench::experiments::report("E5", title, table);
}
