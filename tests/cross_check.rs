//! Workspace cross-check suite — the paper's §6 testing infrastructure.
//!
//! Every application runs through all three execution paths with the
//! same streams, and all must agree with the native golden reference:
//!
//! * the software simulator (`fleet-isim`),
//! * the fast cycle-exact executor (`PuExec`),
//! * full RTL netlist simulation of the compiled design.
//!
//! Every app additionally runs the netlist and executor in lockstep
//! under randomized input starvation and output stalls, comparing every
//! output pin every cycle.

use fleet_apps::{App, AppKind};
use fleet_compiler::{compile, NetDriver, PuExec, PuIn};
use fleet_isim::{bytes_to_tokens, tokens_to_bytes, Interpreter};

fn small_stream(app: &App) -> Vec<u8> {
    // Small enough for netlist simulation, big enough to cross block
    // boundaries and while-loop phases.
    let bytes = match app.kind {
        AppKind::Bloom => 2 * 2048 + 1024, // not block-aligned on purpose? keep aligned
        AppKind::Tree => 12_000,
        _ => 2500,
    };
    match app.kind {
        // Bloom streams must stay block-aligned (documented workload
        // property).
        AppKind::Bloom => app.gen_stream(5, 2 * 2048),
        _ => app.gen_stream(5, bytes),
    }
}

#[test]
fn all_apps_agree_across_execution_paths() {
    for kind in AppKind::all() {
        let app = App::new(kind);
        let spec = app.spec();
        let stream = small_stream(&app);
        let tokens = bytes_to_tokens(&stream, spec.input_token_bits).expect("aligned");
        let golden = app.golden(&stream);

        // Software simulator.
        let isim = Interpreter::run_tokens(&spec, &tokens)
            .unwrap_or_else(|e| panic!("{} isim: {e}", app.name()));
        assert_eq!(
            tokens_to_bytes(&isim.tokens, spec.output_token_bits),
            golden,
            "{}: software simulator vs golden",
            app.name()
        );

        // Fast executor.
        let (fast, cycles) = PuExec::run_stream(&spec, &tokens);
        assert_eq!(
            tokens_to_bytes(&fast, spec.output_token_bits),
            golden,
            "{}: fast executor vs golden",
            app.name()
        );
        // §4 guarantee: one virtual cycle per real cycle without stalls.
        assert!(
            cycles <= isim.vcycles + 4,
            "{}: {} cycles for {} virtual cycles",
            app.name(),
            cycles,
            isim.vcycles
        );

        // Full RTL simulation.
        let netlist = compile(&spec).unwrap_or_else(|e| panic!("{}: {e}", app.name()));
        let (rtl, rtl_cycles) =
            NetDriver::run_stream(netlist, &tokens, isim.vcycles * 4 + 10_000);
        assert_eq!(
            tokens_to_bytes(&rtl, spec.output_token_bits),
            golden,
            "{}: netlist vs golden",
            app.name()
        );
        assert!(rtl_cycles <= isim.vcycles + 4, "{}: netlist throughput", app.name());
    }
}

#[test]
fn lockstep_with_random_stalls_matches_pin_for_pin() {
    // The packed evaluator against the RTL netlist on every app, so the
    // optimizer has an oracle independent of the engine. Integer coding
    // exercises while-loop emission under stall pressure; Bloom
    // exercises BRAM read/write loops.
    for kind in AppKind::all() {
        let app = App::new(kind);
        let spec = app.spec();
        let stream = match kind {
            AppKind::Bloom => app.gen_stream(3, 2048),
            _ => app.gen_stream(3, 600),
        };
        let tokens = bytes_to_tokens(&stream, spec.input_token_bits).expect("aligned");

        let mut rtl = NetDriver::new(compile(&spec).expect("compiles"));
        let mut fast = PuExec::new(&spec);
        let mut rng = 0x0123_4567_89AB_CDEFu64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut pos = 0usize;
        let mut out = Vec::new();
        for cycle in 0..4_000_000u64 {
            let starve = next() % 3 == 0;
            let stall = next() % 3 == 0;
            let have = pos < tokens.len() && !starve;
            let pins = PuIn {
                input_token: if have { tokens[pos] } else { 0 },
                input_valid: have,
                input_finished: pos >= tokens.len(),
                output_ready: !stall,
            };
            let ro = rtl.comb(&pins);
            let fo = fast.comb(&pins);
            assert_eq!(ro, fo, "{}: pin mismatch at cycle {cycle}", app.name());
            rtl.clock();
            fast.clock(&pins);
            if ro.output_valid && pins.output_ready {
                out.push(ro.output_token);
            }
            if ro.input_ready && pins.input_valid {
                pos += 1;
            }
            if ro.output_finished {
                break;
            }
        }
        assert_eq!(
            tokens_to_bytes(&out, spec.output_token_bits),
            app.golden(&stream),
            "{}: stalled stream output",
            app.name()
        );
    }
}

#[test]
fn compiled_netlists_fit_hundreds_of_units() {
    // Sanity for the paper's headline claim: hundreds of units fit.
    use fleet_memctl::MemCtlConfig;
    use fleet_system::{max_units, Platform};
    for kind in AppKind::all() {
        let app = App::new(kind);
        let n = max_units(&app.spec(), &Platform::f1(), &MemCtlConfig::default());
        assert!(
            n >= 100,
            "{}: only {n} units fit by the area model",
            app.name()
        );
    }
}
