//! `repo-benchmark`: see the library docs and `README.md`.

fn main() {
    std::process::exit(repo_benchmark::cli::main());
}
