//! Regenerates the paper result of [`darwin_bench::experiments::fig13_candidates`].
//! Run with `cargo run --release -p darwin-bench --bin exp_fig13_candidates`.
fn main() {
    darwin_bench::experiments::fig13_candidates();
}
