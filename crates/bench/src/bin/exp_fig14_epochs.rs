//! Regenerates the paper result of [`darwin_bench::experiments::fig14_epochs`].
//! Run with `cargo run --release -p darwin-bench --bin exp_fig14_epochs`.
fn main() {
    darwin_bench::experiments::fig14_epochs();
}
