//! E2 — survivors of the Heterogeneous PoisonPill phase (Lemmas 3.6/3.7).
fn main() {
    let title = "E2: Heterogeneous PoisonPill survivors per phase";
    println!("{title}\n");
    let table = fle_bench::e2_het_survivors(&[16, 32, 64, 128], 5);
    fle_bench::experiments::report("E2", title, table);
}
