//! E1 — survivors of the plain PoisonPill phase (Claims 3.1/3.2, Section 3.2).
fn main() {
    let title = "E1: plain PoisonPill survivors per phase (bias 1/sqrt(n))";
    println!("{title}\n");
    let table = fle_bench::e1_poisonpill_survivors(&[16, 32, 64, 128], 5);
    fle_bench::experiments::report("E1", title, table);
}
