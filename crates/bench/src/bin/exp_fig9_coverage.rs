//! Regenerates the paper result of [`darwin_bench::experiments::fig9_coverage`].
//! Run with `cargo run --release -p darwin-bench --bin exp_fig9_coverage`.
fn main() {
    darwin_bench::experiments::fig9_coverage();
}
