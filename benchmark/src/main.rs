fn main() {
    std::process::exit(grout_benchmark::cli::main(
        std::env::args().skip(1).collect(),
    ));
}
