//! E6 — renaming time and messages: paper's algorithm vs random-order baseline.
fn main() {
    let title = "E6: tight renaming, paper's algorithm vs random-order baseline";
    println!("{title}\n");
    let table = fle_bench::e6_renaming(&[4, 8, 16, 24], 3);
    fle_bench::experiments::report("E6", title, table);
}
