//! Regenerates the paper result of [`darwin_bench::experiments::table2_snorkel`].
//! Run with `cargo run --release -p darwin-bench --bin exp_table2_snorkel`.
fn main() {
    darwin_bench::experiments::table2_snorkel();
}
