//! Regenerates the paper result of [`darwin_bench::experiments::annotator_noise`].
//! Run with `cargo run --release -p darwin-bench --bin exp_annotator_noise`.
fn main() {
    darwin_bench::experiments::annotator_noise();
}
