//! Regenerates the paper result of [`darwin_bench::experiments::table1_datasets`].
//! Run with `cargo run --release -p darwin-bench --bin exp_table1_datasets`.
fn main() {
    darwin_bench::experiments::table1_datasets();
}
