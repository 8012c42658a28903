//! End-to-end run (`--trace 0`) of the lowdeg benchmark.

fn main() {
    std::process::exit(lowdeg_perfbench::main_with(
        std::env::args().skip(1).collect(),
        false,
    ));
}
