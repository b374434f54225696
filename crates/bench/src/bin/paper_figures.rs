//! `paper-figures` — regenerates every table and figure of the paper's
//! evaluation (§5) on this machine, printing markdown tables and writing CSV
//! series under `results/`.
//!
//! ```text
//! paper-figures fig5 [bopm|topm|bsm|all] [--max-t-fft N] [--max-t-naive N]
//! paper-figures fig6            # energy model (RAPL substitute)
//! paper-figures fig7            # cache misses (PAPI substitute)
//! paper-figures table5          # thread-count sweep at T = 2^15
//! paper-figures speedups        # headline speedup claims of §5.1
//! paper-figures scaling         # empirical work-scaling exponents (Table 2)
//! paper-figures all
//! ```

use amopt_bench::{time_pricer, Impl};
use amopt_cachesim::{kernels, EnergyModel};
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    let opt = |name: &str, default: usize| -> usize {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    // Defaults keep a full `all` run in CI-scale minutes; raise the caps to
    // reproduce the paper's largest sizes.
    let max_t_fft = opt("--max-t-fft", 1 << 17);
    let max_t_naive = opt("--max-t-naive", 1 << 14);
    fs::create_dir_all("results").ok();

    match cmd {
        "fig5" => {
            let model = args.get(1).map(String::as_str).unwrap_or("all");
            fig5(model, max_t_fft, max_t_naive);
        }
        "fig6" => fig6(max_t_naive),
        "fig7" => fig7(max_t_naive),
        "table5" => table5(opt("--t", 1 << 15)),
        "speedups" => speedups(max_t_naive),
        "scaling" => scaling(max_t_fft),
        "all" => {
            fig5("all", max_t_fft, max_t_naive);
            fig6(max_t_naive);
            fig7(max_t_naive);
            table5(1 << 15);
            speedups(max_t_naive);
            scaling(max_t_fft);
        }
        other => {
            eprintln!("unknown subcommand `{other}`; see module docs");
            std::process::exit(2);
        }
    }
}

fn write_csv(path: &str, header: &str, rows: &[String]) {
    let mut out = String::from(header);
    out.push('\n');
    for r in rows {
        out.push_str(r);
        out.push('\n');
    }
    if let Err(e) = fs::write(Path::new(path), out) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        eprintln!("wrote {path}");
    }
}

fn reps_for(steps: usize) -> usize {
    match steps {
        0..=4096 => 5,
        4097..=65536 => 3,
        _ => 1,
    }
}

/// Figure 5: parallel running time vs T, one sub-figure per model.  A put
/// column rides along for each lattice family, so the tables cover both
/// cones (the BSM grid is a put already).
fn fig5(model: &str, max_t_fft: usize, max_t_naive: usize) {
    let groups: &[(&str, &[Impl])] = &[
        ("bopm", &[Impl::FftBopm, Impl::FftBopmPut, Impl::QlBopm, Impl::ZbBopm]),
        ("topm", &[Impl::FftTopm, Impl::FftTopmPut, Impl::VanillaTopm]),
        ("bsm", &[Impl::FftBsm, Impl::VanillaBsm]),
    ];
    for (name, impls) in groups {
        if model != "all" && model != *name {
            continue;
        }
        println!("\n## Figure 5 ({name}): parallel running time [s] vs T\n");
        print!("| T |");
        for i in *impls {
            print!(" {} |", i.legend());
        }
        println!();
        print!("|---|");
        for _ in *impls {
            print!("---|");
        }
        println!();
        let mut csv = Vec::new();
        let mut t = 1 << 9;
        while t <= max_t_fft {
            print!("| 2^{} |", t.trailing_zeros());
            let mut row = format!("{t}");
            for i in *impls {
                if i.is_quadratic() && t > max_t_naive {
                    print!(" — |");
                    row.push(',');
                    continue;
                }
                let (secs, _) = time_pricer(*i, t, reps_for(t));
                print!(" {secs:.4} |");
                let _ = write!(row, ",{secs:.6}");
            }
            println!();
            csv.push(row);
            t *= 4;
        }
        let header = {
            let mut h = String::from("T");
            for i in *impls {
                let _ = write!(h, ",{}", i.legend());
            }
            h
        };
        write_csv(&format!("results/fig5_{name}.csv"), &header, &csv);
    }
}

/// Figure 6 (+ Fig. 10 split): modeled energy vs T.
fn fig6(max_t_naive: usize) {
    println!("\n## Figure 6: total energy [J, modeled] vs T (pkg/RAM split = Fig. 10)\n");
    println!("| T | fft-bopm | ql-bopm | zb-bopm | fft pkg | fft RAM | ql pkg | ql RAM |");
    println!("|---|---|---|---|---|---|---|---|");
    let em = EnergyModel::default();
    let mut csv = Vec::new();
    let mut t = 1 << 9;
    while t <= max_t_naive {
        let fft = em.evaluate(&kernels::trace_fft_pricer(t, 1));
        let ql = em.evaluate(&kernels::trace_naive(t, 1, |i| i + 1));
        let zb = em.evaluate(&kernels::trace_tiled(t, 128, 2048));
        println!(
            "| 2^{} | {:.4e} | {:.4e} | {:.4e} | {:.3e} | {:.3e} | {:.3e} | {:.3e} |",
            t.trailing_zeros(),
            fft.total(),
            ql.total(),
            zb.total(),
            fft.pkg_joules,
            fft.ram_joules,
            ql.pkg_joules,
            ql.ram_joules,
        );
        csv.push(format!(
            "{t},{},{},{},{},{},{},{}",
            fft.total(),
            ql.total(),
            zb.total(),
            fft.pkg_joules,
            fft.ram_joules,
            ql.pkg_joules,
            ql.ram_joules
        ));
        t *= 2;
    }
    write_csv(
        "results/fig6_energy.csv",
        "T,fft_total,ql_total,zb_total,fft_pkg,fft_ram,ql_pkg,ql_ram",
        &csv,
    );
    let t_big = max_t_naive;
    let fft = em.evaluate(&kernels::trace_fft_pricer(t_big, 1)).total();
    let ql = em.evaluate(&kernels::trace_naive(t_big, 1, |i| i + 1)).total();
    println!(
        "\nenergy saved by fft-bopm at T=2^{}: {:.1}%",
        t_big.trailing_zeros(),
        100.0 * (1.0 - fft / ql)
    );
}

/// Figure 7: simulated L1/L2 cache misses vs T.
fn fig7(max_t_naive: usize) {
    println!("\n## Figure 7: cache misses (simulated Skylake L1 32K/8w, L2 1M/16w)\n");
    println!("| T | fft L1 | ql L1 | zb L1 | fft L2 | ql L2 | zb L2 |");
    println!("|---|---|---|---|---|---|---|");
    let mut csv = Vec::new();
    let mut t = 1 << 9;
    while t <= max_t_naive {
        let fft = kernels::trace_fft_pricer(t, 1);
        let ql = kernels::trace_naive(t, 1, |i| i + 1);
        let zb = kernels::trace_tiled(t, 128, 2048);
        println!(
            "| 2^{} | {} | {} | {} | {} | {} | {} |",
            t.trailing_zeros(),
            fft.l1_misses,
            ql.l1_misses,
            zb.l1_misses,
            fft.l2_misses,
            ql.l2_misses,
            zb.l2_misses,
        );
        csv.push(format!(
            "{t},{},{},{},{},{},{}",
            fft.l1_misses, ql.l1_misses, zb.l1_misses, fft.l2_misses, ql.l2_misses, zb.l2_misses
        ));
        t *= 2;
    }
    write_csv("results/fig7_cache.csv", "T,fft_l1,ql_l1,zb_l1,fft_l2,ql_l2,zb_l2", &csv);
}

/// Table 5: runtime vs thread count at fixed T.
fn table5(t: usize) {
    println!(
        "\n## Table 5: parallel run times [ms] for T = 2^{} as p varies\n",
        t.trailing_zeros()
    );
    let max_p = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2);
    let ps: Vec<usize> =
        [1usize, 2, 4, 8, 16, 32, 48].into_iter().filter(|&p| p <= 2 * max_p).collect();
    print!("| impl |");
    for p in &ps {
        print!(" p={p} |");
    }
    println!("\n|---|{}", "---|".repeat(ps.len()));
    let mut csv = Vec::new();
    for which in [Impl::FftBopm, Impl::QlBopm] {
        print!("| {} |", which.legend());
        let mut row = which.legend().to_string();
        for &p in &ps {
            let secs = amopt_parallel::run_with_threads(p, || {
                let (secs, _) = time_pricer(which, t, 3);
                secs
            });
            print!(" {:.1} |", secs * 1e3);
            let _ = write!(row, ",{:.6}", secs);
        }
        println!();
        csv.push(row);
    }
    let header = {
        let mut h = String::from("impl");
        for p in &ps {
            let _ = write!(h, ",p{p}");
        }
        h
    };
    write_csv("results/table5_scaling.csv", &header, &csv);
    println!("\n(machine exposes {max_p} hardware threads; larger p oversubscribes)");
}

/// §5.1 headline speedups: fft vs best loop baseline at matched T.
fn speedups(max_t_naive: usize) {
    println!("\n## §5.1 headline speedups (fft vs parallel loop baselines)\n");
    println!("| model | T | loop [s] | fft [s] | speedup |");
    println!("|---|---|---|---|---|");
    let pairs = [
        (Impl::FftBopm, Impl::QlBopm, "bopm"),
        (Impl::FftTopm, Impl::VanillaTopm, "topm"),
        (Impl::FftBsm, Impl::VanillaBsm, "bsm"),
    ];
    let mut csv = Vec::new();
    for (fast, slow, name) in pairs {
        for t in [1024usize, max_t_naive] {
            let (tf, _) = time_pricer(fast, t, reps_for(t));
            let (ts, _) = time_pricer(slow, t, reps_for(t));
            println!("| {name} | {t} | {ts:.4} | {tf:.4} | {:.1}x |", ts / tf);
            csv.push(format!("{name},{t},{ts:.6},{tf:.6},{:.3}", ts / tf));
        }
    }
    write_csv("results/speedups.csv", "model,T,loop_s,fft_s,speedup", &csv);
}

/// Empirical scaling exponents: fit runtime ~ T^alpha on log-log points
/// (Table 2's work column, observed).
fn scaling(max_t_fft: usize) {
    println!("\n## Table 2 (empirical): runtime scaling exponents\n");
    let fit = |which: Impl, ts: &[usize]| -> f64 {
        let pts: Vec<(f64, f64)> = ts
            .iter()
            .map(|&t| {
                let (secs, _) = time_pricer(which, t, reps_for(t));
                ((t as f64).ln(), secs.ln())
            })
            .collect();
        // Least-squares slope.
        let n = pts.len() as f64;
        let sx: f64 = pts.iter().map(|p| p.0).sum();
        let sy: f64 = pts.iter().map(|p| p.1).sum();
        let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
        let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
        (n * sxy - sx * sy) / (n * sxx - sx * sx)
    };
    let fft_ts: Vec<usize> = [1 << 13, 1 << 15, max_t_fft.max(1 << 16)].to_vec();
    let naive_ts: Vec<usize> = vec![1 << 11, 1 << 12, 1 << 13];
    let a_fft = fit(Impl::FftBopm, &fft_ts);
    let a_naive = fit(Impl::QlBopm, &naive_ts);
    println!("| impl | fitted exponent | theory |");
    println!("|---|---|---|");
    println!("| fft-bopm | {a_fft:.2} | 1 + o(1)  (T log^2 T) |");
    println!("| ql-bopm  | {a_naive:.2} | 2  (T^2) |");
    write_csv(
        "results/scaling.csv",
        "impl,exponent",
        &[format!("fft-bopm,{a_fft:.4}"), format!("ql-bopm,{a_naive:.4}")],
    );
}
