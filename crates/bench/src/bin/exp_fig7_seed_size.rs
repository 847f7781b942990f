//! Regenerates the paper result of [`darwin_bench::experiments::fig7_seed_size`].
//! Run with `cargo run --release -p darwin-bench --bin exp_fig7_seed_size`.
fn main() {
    darwin_bench::experiments::fig7_seed_size();
}
