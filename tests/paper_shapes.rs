//! End-to-end integration tests asserting the paper's *qualitative shapes*
//! on every reproduced artifact, at reduced (fast) experiment scale.
//!
//! These call the same experiment computations the `repro` binary prints,
//! so a passing suite means the regenerated tables and figures tell the
//! same story as the paper: who wins, in which direction, by roughly what
//! factor.

use rbv_bench::experiments::*;
use rbv_workloads::AppId;

#[test]
fn fig1_multicore_obfuscates_request_performance() {
    let rows = fig1::compute(true);
    for pair in rows.chunks(2) {
        let (serial, conc) = (&pair[0], &pair[1]);
        assert!(serial.serial && !conc.serial);
        match serial.app {
            AppId::Webwork => {
                // WeBWorK sees no significant impact.
                assert!(
                    conc.p90 / serial.p90 < 1.06,
                    "WeBWorK should be immune: {} vs {}",
                    serial.p90,
                    conc.p90
                );
            }
            AppId::Tpch => {
                // TPCH's tail degrades the most (the paper sees ~2x).
                assert!(
                    conc.p90 / serial.p90 > 1.45,
                    "TPCH p90 should inflate heavily: {} vs {}",
                    serial.p90,
                    conc.p90
                );
            }
            _ => {
                assert!(
                    conc.p90 >= serial.p90 * 0.99,
                    "{}: concurrent p90 {} below serial {}",
                    serial.app,
                    conc.p90,
                    serial.p90
                );
            }
        }
        if serial.app == AppId::Tpcc {
            // Multiple clusters from the distinct transaction types.
            assert!(
                serial.modes >= 2,
                "TPCC serial distribution should be multimodal, got {} modes",
                serial.modes
            );
        }
    }
}

#[test]
fn fig2_intra_request_variation_exists_at_every_granularity() {
    let traces = fig2::compute(true);
    assert_eq!(traces.len(), 5);
    for t in &traces {
        assert!(t.cpi.len() >= 5, "{}: too few buckets", t.app);
        assert!(
            t.cpi_cov() > 0.02,
            "{}: no intra-request variation captured (CoV {})",
            t.app,
            t.cpi_cov()
        );
    }
    // WeBWorK requests are the longest by far; web requests the shortest.
    let total = |t: &fig2::RequestTrace| t.cpi.len() as f64 * t.bucket_ins;
    let web = traces.iter().find(|t| t.app == AppId::WebServer).unwrap();
    let ww = traces.iter().find(|t| t.app == AppId::Webwork).unwrap();
    assert!(total(ww) > total(web) * 20.0);
}

#[test]
fn tab1_observer_effect_matches_paper_structure() {
    use rbv_os::observer::SamplingContext;
    let rows = tab1::compute(true);
    let get = |ctx: SamplingContext, wl: &str| {
        rows.iter()
            .find(|r| r.context == ctx && r.workload == wl)
            .expect("row present")
            .cost
    };
    let ik_spin = get(SamplingContext::InKernel, "Mbench-Spin");
    let ik_data = get(SamplingContext::InKernel, "Mbench-Data");
    let ir_spin = get(SamplingContext::Interrupt, "Mbench-Spin");
    let ir_data = get(SamplingContext::Interrupt, "Mbench-Data");

    // Paper anchors: 0.42 / 0.46 / 0.76 / 0.80 us.
    assert!(
        (ik_spin.micros() - 0.42).abs() < 0.03,
        "{}",
        ik_spin.micros()
    );
    assert!(
        (ir_spin.micros() - 0.76).abs() < 0.04,
        "{}",
        ir_spin.micros()
    );
    assert!(ik_data.micros() > ik_spin.micros());
    assert!(ir_data.micros() > ir_spin.micros());
    // The data workload evicts the ~13 statistics lines; spin does not.
    assert_eq!(ik_spin.l2_refs, 0.0);
    assert!((ik_data.l2_refs - 13.0).abs() < 1.5, "{}", ik_data.l2_refs);
    // No measurable L2 misses in any cell (the stat lines stay L2-resident).
    assert!(ik_data.l2_misses < 0.5);
}

#[test]
fn fig3_intra_request_fluctuations_dominate() {
    use rbv_core::series::Metric;
    let cells = fig3::compute(true);
    for c in &cells {
        assert!(
            c.with_intra >= c.inter_only * 0.99,
            "{} {}: intra must add variation ({} vs {})",
            c.app,
            c.metric,
            c.with_intra,
            c.inter_only
        );
    }
    // "much stronger metric variations for most applications": check CPI.
    for app in [AppId::WebServer, AppId::Rubis, AppId::Webwork] {
        let c = cells
            .iter()
            .find(|c| c.app == app && c.metric == Metric::Cpi)
            .unwrap();
        assert!(
            c.with_intra > c.inter_only * 2.0,
            "{app}: intra should dominate ({} vs {})",
            c.with_intra,
            c.inter_only
        );
    }
}

#[test]
fn fig4_syscall_density_ordering() {
    let curves = fig4::compute(true);
    let p16 = |app: AppId| {
        curves
            .iter()
            .find(|c| c.app == app)
            .unwrap()
            .p_within_us(16.0)
    };
    // Paper: web 97%, TPCH 83%, RUBiS 72% within 16 us; TPCC and WeBWorK
    // far sparser but usually within 1 ms.
    assert!(p16(AppId::WebServer) > 0.90, "{}", p16(AppId::WebServer));
    assert!(p16(AppId::Tpch) > 0.60);
    assert!(p16(AppId::Rubis) > 0.55);
    assert!(p16(AppId::WebServer) > p16(AppId::Tpch));
    assert!(p16(AppId::Tpch) >= p16(AppId::Rubis));
    assert!(p16(AppId::Tpcc) < 0.35, "{}", p16(AppId::Tpcc));
    assert!(p16(AppId::Webwork) < 0.35);
    let p1ms = |app: AppId| {
        curves
            .iter()
            .find(|c| c.app == app)
            .unwrap()
            .p_within_us(1_000.0)
    };
    assert!(p1ms(AppId::Tpcc) > 0.70, "{}", p1ms(AppId::Tpcc));
    assert!(p1ms(AppId::Webwork) > 0.60, "{}", p1ms(AppId::Webwork));
}

#[test]
fn fig5_syscall_sampling_saves_overhead() {
    let rows = fig5::compute(true);
    for r in &rows {
        assert!(
            r.savings() > 0.05,
            "{}: syscall-triggered sampling should save cost, got {:.2}",
            r.app,
            r.savings()
        );
        assert!(
            r.savings() < 0.50,
            "{}: savings bounded by the in-kernel/interrupt cost ratio, got {:.2}",
            r.app,
            r.savings()
        );
        // Frequencies were matched within ~25%.
        let ratio = r.syscall_samples as f64 / r.interrupt_samples as f64;
        assert!(
            (0.7..1.35).contains(&ratio),
            "{}: unmatched frequencies ({ratio:.2})",
            r.app
        );
    }
}

#[test]
fn tab2_transition_signals_have_paper_directions() {
    use rbv_workloads::SyscallName;
    let (rows, _) = tab2::compute(true);
    let mean_of = |n: SyscallName| rows.iter().find(|r| r.name == n).map(|r| r.mean);
    // writev signals a large CPI increase; lseek a decrease (Table 2).
    let writev = mean_of(SyscallName::Writev).expect("writev observed");
    let lseek = mean_of(SyscallName::Lseek).expect("lseek observed");
    assert!(writev > 1.0, "writev mean change {writev}");
    assert!(lseek < -0.5, "lseek mean change {lseek}");
    // writev has the largest magnitude overall (it tops the table).
    assert_eq!(rows[0].name, SyscallName::Writev);
}

#[test]
fn transition_signal_sampling_improves_captured_variation() {
    let c = sig::compute(true);
    assert!(
        c.enhanced_cov > c.baseline_cov * 1.05,
        "enhanced {} vs baseline {}",
        c.enhanced_cov,
        c.baseline_cov
    );
    // At comparable sampling cost.
    let ratio = c.enhanced_samples as f64 / c.baseline_samples as f64;
    assert!((0.65..1.5).contains(&ratio), "sample ratio {ratio}");
}

#[test]
fn fig6_dtw_absorbs_drift_cheaper_than_l1() {
    let pair = fig6::compute(true);
    assert!(pair.penalty > 0.0);
    assert!(
        pair.dtw < pair.l1 * 0.9,
        "DTW+penalty {} should undercut L1 {} on a drifting pair",
        pair.dtw,
        pair.l1
    );
}

#[test]
fn fig7_dtw_with_penalty_classifies_best() {
    use fig7::MeasureKind::*;
    let cells = fig7::compute(true);
    let get = |app: AppId, m: fig7::MeasureKind| {
        cells
            .iter()
            .find(|c| c.app == app && c.measure == m)
            .unwrap()
    };
    for app in AppId::SERVER_APPS {
        let best = get(app, DtwWithPenalty).cpu_time_divergence;
        // The asynchrony penalty rescues plain DTW...
        assert!(
            best <= get(app, Dtw).cpu_time_divergence * 1.05,
            "{app}: penalty must not hurt DTW"
        );
        // ...and beats the software-only baseline on CPU time.
        assert!(
            best < get(app, SyscallLevenshtein).cpu_time_divergence * 1.05,
            "{app}: DTW+penalty {best} vs Levenshtein {}",
            get(app, SyscallLevenshtein).cpu_time_divergence
        );
        // L1 is a close second (within 2x either way).
        let l1 = get(app, L1).cpu_time_divergence;
        assert!(l1 < best * 2.5 + 2.0, "{app}: L1 {l1} vs {best}");
    }
    // Average CPI is poor on CPU time for the database workloads
    // (Figure 7A) despite being fine on peak CPI (Figure 7B).
    for app in [AppId::Tpcc, AppId::Tpch] {
        let avg = get(app, AverageCpi);
        let best = get(app, DtwWithPenalty);
        assert!(
            avg.cpu_time_divergence > best.cpu_time_divergence * 1.5,
            "{app}: avg-CPI should trail on CPU time"
        );
        assert!(
            avg.peak_cpi_divergence < avg.cpu_time_divergence,
            "{app}: avg-CPI is relatively better on peak CPI"
        );
    }
    // Plain DTW badly underestimates for at least some applications.
    let dtw_fails = AppId::SERVER_APPS.iter().any(|&app| {
        get(app, Dtw).cpu_time_divergence > get(app, DtwWithPenalty).cpu_time_divergence * 2.0
    });
    assert!(dtw_fails, "free warping should hurt somewhere");
}

#[test]
fn fig8_anomaly_has_elevated_cpi_and_misses() {
    let t = fig8::compute(true);
    assert_eq!(t.anomaly.len(), 3);
    assert!(t.distance > 0.0);
    // Anomaly and reference share the same query: similar trace lengths.
    let (la, lr) = (t.anomaly[0].len() as f64, t.reference[0].len() as f64);
    assert!((la / lr - 1.0).abs() < 0.35, "lengths {la} vs {lr}");
}

#[test]
fn fig9_multi_metric_pair_is_similar_in_usage_divergent_in_cpi() {
    let t = fig9::compute(true);
    assert!(
        t.cpis.0 > t.cpis.1,
        "anomaly {} should be slower than reference {}",
        t.cpis.0,
        t.cpis.1
    );
}

#[test]
fn fig10_variation_signatures_beat_baselines() {
    let curves = fig10::compute(true);
    for c in &curves {
        let best_var = c
            .variation_error
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let best_avg = c
            .average_error
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        match c.app {
            AppId::Webwork => {
                // Identical early processing defeats both signature forms:
                // the curves stay flat, far from zero.
                let spread = c.variation_error.iter().cloned().fold(0.0, f64::max) - best_var;
                assert!(spread < 0.12, "WeBWorK curve should be flat: {spread}");
                assert!(best_var > 0.2, "WeBWorK signatures should stay poor");
            }
            _ => {
                assert!(
                    best_var < c.past_error,
                    "{}: variation {best_var} vs past {}",
                    c.app,
                    c.past_error
                );
                assert!(
                    best_var <= best_avg + 0.02,
                    "{}: variation {best_var} vs average {best_avg}",
                    c.app
                );
            }
        }
    }
}

#[test]
fn fig11_vaewma_wins_with_mid_range_gains() {
    let all = fig11::compute(true);
    for s in &all {
        let best = s.best_vaewma();
        let last = s.score_of("last value").unwrap();
        let avg = s.score_of("request average").unwrap();
        assert!(
            best < last,
            "{}: best vaEWMA {best} should beat last value {last}",
            s.app
        );
        assert!(
            best < avg,
            "{}: best vaEWMA {best} should beat request average {avg}",
            s.app
        );
        // The optimum sits at a mid-range gain, not at the extremes.
        let a01 = s.score_of("vaEWMA a=0.1").unwrap();
        let a09 = s.score_of("vaEWMA a=0.9").unwrap();
        assert!(best < a09, "{}: a=0.9 should not be optimal", s.app);
        assert!(
            best <= a01 + 1e-12,
            "{}: a=0.1 should not beat the mid range",
            s.app
        );
    }
}

#[test]
fn fig12_contention_easing_keeps_cpi_flat() {
    // Fast mode (one seed, 1/5 scale requests) sits within seed noise for
    // the >=3-core high-usage cut, so this fast test checks only the
    // Figure 13 side effects; the Figure 12 contention cut itself is
    // asserted at full scale by the `#[ignore]`d test below (see
    // EXPERIMENTS.md for the seed-sweep data behind this split).
    let outcomes = fig12_13::compute(true);
    for pair in outcomes.chunks(2) {
        let (orig, eased) = (&pair[0], &pair[1]);
        assert!(!orig.contention_easing && eased.contention_easing);
        // Figure 13: the average is essentially unchanged.
        assert!(
            (eased.cpi_mean / orig.cpi_mean - 1.0).abs() < 0.05,
            "{}: average CPI should be flat ({} vs {})",
            orig.app,
            eased.cpi_mean,
            orig.cpi_mean
        );
        // The worst case does not regress.
        assert!(
            eased.cpi_p99 < orig.cpi_p99 * 1.03,
            "{}: p99 CPI should not regress ({} vs {})",
            orig.app,
            eased.cpi_p99,
            orig.cpi_p99
        );
    }
}

#[test]
#[ignore = "full-scale (1000-request, 3-seed) run, about a minute in release; CI runs it as its own step"]
fn fig12_contention_easing_cuts_simultaneous_high_usage_full_scale() {
    let outcomes = fig12_13::compute(false);
    for pair in outcomes.chunks(2) {
        let (orig, eased) = (&pair[0], &pair[1]);
        assert!(!orig.contention_easing && eased.contention_easing);
        // The most intensive contention shrinks (the paper's ~25% cut at
        // the 4-core level; >= 3 cores is the stable summary here —
        // roughly a 21% cut for TPC-H and 10% for WeBWorK across seeds).
        assert!(
            eased.high_ge3 < orig.high_ge3,
            "{}: >=3-core high time should shrink ({} vs {})",
            orig.app,
            eased.high_ge3,
            orig.high_ge3
        );
    }
}

#[test]
fn extension_bigram_signals_are_sharper_than_names() {
    // §3.2's suggested improvement: (previous, current) syscall bigrams
    // disambiguate a name recurring in several semantic contexts.
    let rows = ablate::ablate_signals(true);
    let name = rows.iter().find(|r| r.kind == "name").unwrap();
    let bigram = rows.iter().find(|r| r.kind == "bigram").unwrap();
    assert!(
        bigram.consistency > name.consistency,
        "bigram consistency {} vs name {}",
        bigram.consistency,
        name.consistency
    );
    assert!(bigram.mean_abs_change > name.mean_abs_change);
}

#[test]
fn extension_platform_projection_predicts_target_cpi() {
    // §7 future work: project measured timelines onto a faster-memory
    // machine and check against a ground-truth run of that machine.
    use rbv_core::stats::mean;
    use rbv_mem::MachineSpec;
    use rbv_os::{run_simulation, PlatformProjection, SimConfig};
    use rbv_workloads::factory_for;

    let source = MachineSpec::xeon_5160();
    let target = MachineSpec {
        l2_hit_cycles: 11.0,
        mem_base_cycles: 150.0,
        peak_lines_per_cycle: source.peak_lines_per_cycle * 2.0,
        ..source
    };
    let run = |machine: MachineSpec| {
        let mut cfg = SimConfig::paper_default()
            .with_interrupt_sampling(100)
            .serial();
        cfg.machine = machine;
        let mut factory = factory_for(AppId::Tpcc, 5, 0.3);
        run_simulation(cfg, factory.as_mut(), 20).expect("valid")
    };
    let src = run(source);
    let tgt = run(target);

    let projection = PlatformProjection::new(source, target);
    let projected: Vec<f64> = src
        .completed
        .iter()
        .filter_map(|r| {
            projection
                .project_timeline(&r.timeline)
                .average(rbv_core::series::Metric::Cpi)
        })
        .collect();
    let predicted = mean(&projected).unwrap();
    let actual = mean(&tgt.request_cpis()).unwrap();
    let src_cpi = mean(&src.request_cpis()).unwrap();
    // The projection must capture most of the real improvement.
    assert!(actual < src_cpi, "target machine should be faster");
    let rel_err = (predicted / actual - 1.0).abs();
    assert!(
        rel_err < 0.08,
        "projection error {rel_err:.3} (predicted {predicted:.3}, actual {actual:.3})"
    );
    // And it must predict an improvement, not just the status quo.
    assert!(predicted < src_cpi * 0.97);
}
