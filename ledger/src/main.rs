//! `ledger` — see `ii_ledger::cli` for the modes.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(ii_ledger::cli::main(&args));
}
