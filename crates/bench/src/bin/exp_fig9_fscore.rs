//! Regenerates the paper result of [`darwin_bench::experiments::fig9_fscore`].
//! Run with `cargo run --release -p darwin-bench --bin exp_fig9_fscore`.
fn main() {
    darwin_bench::experiments::fig9_fscore();
}
