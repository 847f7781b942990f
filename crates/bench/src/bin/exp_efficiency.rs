//! Regenerates the paper result of [`darwin_bench::experiments::efficiency`].
//! Run with `cargo run --release -p darwin-bench --bin exp_efficiency`.
fn main() {
    darwin_bench::experiments::efficiency();
}
