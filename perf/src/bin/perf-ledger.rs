//! The plain build: the product exactly as shipped, no tracing.

fn main() -> std::process::ExitCode {
    perf_ledger::main()
}
