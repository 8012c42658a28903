//! Per-layer run (`--trace 1`) of the lowdeg benchmark, with the counting
//! allocator installed.

#[global_allocator]
static ALLOC: lowdeg_perfbench::alloc::CountingAlloc = lowdeg_perfbench::alloc::CountingAlloc;

fn main() {
    std::process::exit(lowdeg_perfbench::main_with(
        std::env::args().skip(1).collect(),
        true,
    ));
}
