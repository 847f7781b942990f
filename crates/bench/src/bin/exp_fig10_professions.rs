//! Regenerates the paper result of [`darwin_bench::experiments::fig10_professions`].
//! Run with `cargo run --release -p darwin-bench --bin exp_fig10_professions`.
fn main() {
    darwin_bench::experiments::fig10_professions();
}
