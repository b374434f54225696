//! The traced build (`--features traced`): the product's kernel phase
//! timers compiled in, and every allocation counted.

#[global_allocator]
static ALLOCATOR: perf_ledger::alloc::Counting = perf_ledger::alloc::Counting;

fn main() -> std::process::ExitCode {
    perf_ledger::main()
}
