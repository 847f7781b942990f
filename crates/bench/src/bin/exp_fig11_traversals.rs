//! Regenerates the paper result of [`darwin_bench::experiments::fig11_traversals`].
//! Run with `cargo run --release -p darwin-bench --bin exp_fig11_traversals`.
fn main() {
    darwin_bench::experiments::fig11_traversals();
}
