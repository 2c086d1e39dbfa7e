//! `pipebench` command line; see the library documentation.

use std::process::ExitCode;

use pipebench::run::USAGE;
use pipebench::{run, Options};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let options = match Options::parse(args) {
        Ok(options) => options,
        Err(err) => {
            eprintln!("pipebench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&options);
    print!("{}", report.text());
    if let Some(dir) = &options.out {
        if let Err(err) = report.write_out(dir) {
            eprintln!("pipebench: writing {}: {err}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", report.json_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
