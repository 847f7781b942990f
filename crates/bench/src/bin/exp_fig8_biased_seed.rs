//! Regenerates the paper result of [`darwin_bench::experiments::fig8_biased_seed`].
//! Run with `cargo run --release -p darwin-bench --bin exp_fig8_biased_seed`.
fn main() {
    darwin_bench::experiments::fig8_biased_seed();
}
