//! E8 — ablation: fixed coin biases vs the heterogeneous bias under the strong adversary.
fn main() {
    let title = "E8: sifting bias ablation under coin-aware and sequential adversaries";
    println!("{title}\n");
    let table = fle_bench::e8_bias_ablation(&[64, 128], 5);
    fle_bench::experiments::report("E8", title, table);
}
