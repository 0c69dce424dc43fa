//! Micro-benchmarks for end-to-end scheduling throughput.

use autobraid::config::{Recording, ScheduleConfig};
use autobraid::{AutoBraid, Strategy};
use autobraid_circuit::generators::{ising::ising, qaoa::qaoa, qft::qft};
use autobraid_telemetry::bench::BenchGroup;

fn config() -> ScheduleConfig {
    ScheduleConfig::default().with_recording(Recording::StatsOnly)
}

fn bench_schedulers() {
    let mut group = BenchGroup::new("schedule");
    let qft50 = qft(50).unwrap();
    let im200 = ising(200, 2).unwrap();
    let qaoa100 = qaoa(100, 8, 3, 2021).unwrap();

    let compiler = AutoBraid::new(config());
    let runs = [
        ("baseline/qft50", Strategy::Baseline, &qft50),
        ("autobraid-sp/qft50", Strategy::Stack, &qft50),
        ("autobraid-full/qft50", Strategy::Full, &qft50),
        ("maslov/qft50", Strategy::Maslov, &qft50),
        ("autobraid-sp/im200", Strategy::Stack, &im200),
        ("autobraid-sp/qaoa100", Strategy::Stack, &qaoa100),
    ];
    for (name, strategy, circuit) in runs {
        group.bench(name, || compiler.schedule(strategy, circuit));
    }
    group.finish();
}

fn main() {
    bench_schedulers();
}
