//! `paper-figures` — regenerates the paper's cache and energy figures (§5,
//! Figs. 6, 7 and 10) from the cache simulator, printing markdown tables and
//! writing CSV series under `results/`.  Nothing here reads a clock: the
//! timed §5 results (Fig. 5, Table 5, the §5.1 speed-ups) are the
//! perf-ledger's (`perf/`).
//!
//! ```text
//! paper-figures fig6 [--max-t-naive N]   # energy model (RAPL substitute)
//! paper-figures fig7 [--max-t-naive N]   # cache misses (PAPI substitute)
//! paper-figures all  [--max-t-naive N]   # fig6 then fig7
//! ```

use amopt_cachesim::{kernels, EnergyModel};
use std::fs;
use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    let max_t_naive = args
        .iter()
        .position(|a| a == "--max-t-naive")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1 << 14);
    fs::create_dir_all("results").ok();

    match cmd {
        "fig6" => fig6(max_t_naive),
        "fig7" => fig7(max_t_naive),
        "all" => {
            fig6(max_t_naive);
            fig7(max_t_naive);
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
