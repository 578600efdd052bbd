//! Regenerates the paper's figures as CSV tables on stdout.
//!
//! ```text
//! figures [--figure <3..15|space|path|load|snapshot|plans|live_write|qps|cold_open|dict|joins|all>]
//!         [--triples N] [--points K] [--reps R] [--threads T]
//! ```
//!
//! Examples:
//!
//! ```text
//! cargo run --release -p hex-bench --bin figures -- --figure 10
//! cargo run --release -p hex-bench --bin figures -- --figure all --triples 1000000
//! cargo run --release -p hex-bench --bin figures -- --figure load --threads 8
//! ```
//!
//! Defaults are sized for a laptop-scale run (200k triples, 5 prefix
//! points); raise `--triples` towards the paper's 6M-triple axis when time
//! permits.

use hex_bench::{
    cli, cold_open_figure, cold_open_to_csv, dict_figure, dict_to_csv, joins_figure, joins_to_csv,
    live_write_figure, live_write_to_csv, load_figure, load_to_csv, memory_figure, memory_to_csv,
    path_report, plans_figure, plans_to_csv, qps_figure, qps_to_csv, run_figure, snapshot_figure,
    snapshot_to_csv, space_report, FIGURES,
};

struct Args {
    figure: String,
    triples: usize,
    points: usize,
    reps: usize,
    threads: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { figure: "all".into(), triples: 200_000, points: 5, reps: 3, threads: 4 };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--figure" | "-f" => args.figure = cli::value(&mut it, "--figure")?,
            "--triples" | "-n" => args.triples = cli::parse_usize(&mut it, "--triples")?,
            "--points" | "-p" => args.points = cli::parse_usize(&mut it, "--points")?,
            "--reps" | "-r" => args.reps = cli::parse_usize(&mut it, "--reps")?,
            "--threads" | "-t" => args.threads = cli::parse_usize(&mut it, "--threads")?,
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.figure != "all" && !FIGURES.iter().any(|(id, _)| *id == args.figure) {
        let names: Vec<&str> = FIGURES.iter().map(|(id, _)| *id).chain(["all"]).collect();
        return Err(format!("unknown figure {}; valid: {}", args.figure, names.join(", ")));
    }
    if args.points == 0 || args.triples < 1000 || args.threads == 0 {
        return Err("need --points >= 1, --triples >= 1000 and --threads >= 1".into());
    }
    Ok(args)
}

fn print_help() {
    println!("figures — regenerate the Hexastore paper's evaluation figures\n");
    println!("usage: figures [--figure F] [--triples N] [--points K] [--reps R] [--threads T]\n");
    println!(
        "  --threads applies to the 'load' figure's parallel loader and is the 'qps' \
         figure's client count (default 4)\n"
    );
    println!("figures:");
    for (id, title) in FIGURES {
        println!("  {id:>6}  {title}");
    }
    println!("  {:>6}  everything above", "all");
}

fn emit(figure: &str, triples: usize, points: usize, reps: usize, threads: usize) {
    match figure {
        "15" => {
            for dataset in ["barton", "lubm"] {
                let rows = memory_figure(dataset, triples, points);
                print!("{}", memory_to_csv(dataset, &rows));
                println!();
            }
        }
        "space" => {
            print!("{}", space_report(triples));
            println!();
        }
        "path" => {
            print!("{}", path_report(triples));
            println!();
        }
        "load" => {
            for dataset in ["barton", "lubm"] {
                let rows = load_figure(dataset, triples, points, reps, threads);
                print!("{}", load_to_csv(dataset, &rows));
                println!();
            }
        }
        "snapshot" => {
            print!("{}", snapshot_to_csv(&snapshot_figure(triples, reps)));
            println!();
        }
        "plans" => {
            print!("{}", plans_to_csv(&plans_figure(triples, reps)));
            println!();
        }
        "live_write" => {
            print!("{}", live_write_to_csv(&live_write_figure(triples, reps)));
            println!();
        }
        "qps" => {
            print!("{}", qps_to_csv(&qps_figure(triples, threads, reps)));
            println!();
        }
        "cold_open" => {
            print!("{}", cold_open_to_csv(&cold_open_figure(triples, reps)));
            println!();
        }
        "dict" => {
            print!("{}", dict_to_csv(&dict_figure(triples, reps)));
            println!();
        }
        "joins" => {
            print!("{}", joins_to_csv(&[joins_figure(triples, reps)]));
            println!();
        }
        timing => {
            let fig = run_figure(timing, triples, points, reps);
            print!("{}", fig.to_csv());
            println!();
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n");
            print_help();
            std::process::exit(2);
        }
    };
    eprintln!(
        "# figures: figure={} triples={} points={} reps={} threads={}",
        args.figure, args.triples, args.points, args.reps, args.threads
    );
    if args.figure == "all" {
        for (id, _) in FIGURES {
            emit(id, args.triples, args.points, args.reps, args.threads);
        }
    } else {
        emit(&args.figure, args.triples, args.points, args.reps, args.threads);
    }
}
