//! CI smoke for the streamed flow-state soak: drive a large-user
//! [`exbox_traffic::ScaledWorkload`] flash-crowd stream through a
//! one-shard gateway and assert the process peak RSS stayed under a
//! ceiling. Guards the streaming contract — memory O(users +
//! concurrent flows), never O(total events).
//!
//! ```sh
//! cargo run --release -p exbox-bench --bin flow_scale_soak -- \
//!     --users 100000 --days 1 --assert-rss-kb 786432
//! ```

use exbox_bench::{peak_rss_kb, run_soak, SoakConfig};
use exbox_core::prelude::*;
use exbox_core::qoe::QosScale;

fn estimator() -> QoeEstimator {
    let mk = |a: f64, b: f64, g: f64| -> Vec<(f64, f64)> {
        (0..20)
            .map(|i| {
                let q = i as f64 / 19.0;
                (q, a + b * (-g * q).exp())
            })
            .collect()
    };
    train_estimator(
        &[mk(1.0, 11.0, 5.0), mk(2.0, 20.0, 6.0), mk(42.0, -30.0, 4.0)],
        QoeEstimator::paper_thresholds(),
        paper_directions(),
        QosScale::new(1e3, 1e8),
    )
}

fn usage() -> ! {
    eprintln!(
        "usage: flow_scale_soak [--users N] [--days N] [--assert-rss-kb N]\n\
         defaults: 100000 users, 1 day, no RSS assertion"
    );
    std::process::exit(2);
}

fn main() {
    let mut cfg = SoakConfig::default();
    let mut ceiling_kb: Option<u64> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| -> u64 {
            argv.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("{name} needs a numeric value");
                usage();
            })
        };
        match flag.as_str() {
            "--users" => cfg.users = value("--users") as usize,
            "--days" => cfg.days = value("--days") as u32,
            "--assert-rss-kb" => ceiling_kb = Some(value("--assert-rss-kb")),
            _ => usage(),
        }
    }
    if cfg.users == 0 || cfg.days == 0 {
        usage();
    }

    eprintln!(
        "streaming {} users x {} day(s) through a one-shard gateway...",
        cfg.users, cfg.days
    );
    let report = run_soak(cfg, estimator());
    let rss_kb = peak_rss_kb().unwrap_or(0);
    println!(
        "events={} arrivals={} peak_flows={} polls={} final_flows={} peak_rss_kb={}",
        report.events, report.arrivals, report.peak_flows, report.polls, report.final_flows, rss_kb,
    );
    assert!(report.arrivals > 0, "the stream produced no sessions");
    assert_eq!(
        report.final_flows, 0,
        "every session must depart by the horizon"
    );

    if let Some(ceiling) = ceiling_kb {
        if rss_kb == 0 {
            eprintln!("VmHWM unavailable on this platform; RSS assertion skipped");
        } else if rss_kb > ceiling {
            eprintln!("peak RSS {rss_kb} kB exceeds the {ceiling} kB ceiling");
            std::process::exit(1);
        } else {
            eprintln!("peak RSS {rss_kb} kB <= {ceiling} kB ceiling — ok");
        }
    }
}
