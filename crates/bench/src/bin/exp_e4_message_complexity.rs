//! E4 — message complexity vs the number of participants k (Theorem A.5).
fn main() {
    let title = "E4: message complexity at n = 64, k participants";
    println!("{title}\n");
    let table = fle_bench::e4_message_complexity(64, &[1, 2, 4, 8, 16, 32, 64], 3);
    fle_bench::experiments::report("E4", title, table);
}
