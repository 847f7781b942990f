//! Regenerates the paper result of [`darwin_bench::experiments::fig12_sensitivity`].
//! Run with `cargo run --release -p darwin-bench --bin exp_fig12_sensitivity`.
fn main() {
    darwin_bench::experiments::fig12_sensitivity();
}
