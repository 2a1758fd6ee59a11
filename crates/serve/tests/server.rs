//! Server integration suite: concurrency, dedup, and the cache-hit fast
//! path, exercised over real TCP connections.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use atim_autotune::{Cancellation, MeasureJob, MeasureOutcome, MeasureReport, Trace};
use atim_core::{AnalyticBackend, Backend, CompileOptions, CompiledModule, Session};
use atim_serve::{serve, Client, ServeOptions, TuneRequest};
use atim_sim::{ExecutionReport, SimResult, UpmemConfig};
use atim_tir::compute::ComputeDef;
use atim_tir::error::Result as TirResult;

/// Delegates to the analytic backend, but blocks every measurement batch
/// until the test opens the gate — so a search stays reliably in flight
/// while concurrent duplicate requests pile up behind it — and counts the
/// jobs it answered with a latency.
struct GatedBackend {
    inner: AnalyticBackend,
    open: AtomicBool,
    measured_jobs: AtomicUsize,
}

impl GatedBackend {
    fn new() -> Arc<Self> {
        Arc::new(GatedBackend {
            inner: AnalyticBackend::new(UpmemConfig::default()),
            open: AtomicBool::new(false),
            measured_jobs: AtomicUsize::new(0),
        })
    }

    fn release(&self) {
        self.open.store(true, Ordering::SeqCst);
    }

    fn wait_for_gate(&self) {
        let start = Instant::now();
        while !self.open.load(Ordering::SeqCst) {
            assert!(
                start.elapsed() < Duration::from_secs(30),
                "test gate never opened"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Backend for GatedBackend {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn hardware(&self) -> &UpmemConfig {
        self.inner.hardware()
    }
    fn compile_options(&self) -> CompileOptions {
        self.inner.compile_options()
    }
    fn time(&self, module: &CompiledModule) -> TirResult<ExecutionReport> {
        self.inner.time(module)
    }
    fn execute(&self, module: &CompiledModule, inputs: &[Vec<f32>]) -> TirResult<SimResult> {
        self.inner.execute(module, inputs)
    }
    fn measure(&self, trace: &Trace, def: &ComputeDef) -> Option<f64> {
        self.wait_for_gate();
        self.inner.measure(trace, def)
    }
    fn measure_jobs(
        &self,
        jobs: &[MeasureJob],
        def: &ComputeDef,
        cancel: &Cancellation,
    ) -> Vec<MeasureReport> {
        self.wait_for_gate();
        let reports = self.inner.measure_jobs(jobs, def, cancel);
        let measured = reports
            .iter()
            .filter(|r| matches!(r.outcome, MeasureOutcome::Measured(_)))
            .count();
        self.measured_jobs.fetch_add(measured, Ordering::SeqCst);
        reports
    }
}

fn temp_cache(name: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// The headline dedup pin: N concurrent identical requests run exactly one
/// underlying search, and every client receives the identical trace and
/// latency.
#[test]
fn concurrent_duplicate_requests_tune_once_and_all_get_the_result() {
    const CLIENTS: usize = 4;
    let backend = GatedBackend::new();
    let path = temp_cache("atim_serve_dedup_test.jsonl");
    let session = Session::builder()
        .backend_arc(backend.clone())
        .schedule_cache(&path)
        .build();
    let handle = serve(session, "127.0.0.1:0", ServeOptions::default()).unwrap();
    let client = Client::new(handle.addr());

    let threads: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let client = client.clone();
            std::thread::spawn(move || {
                client
                    .tune(&TuneRequest::quick("gemv", vec![2048, 2048]))
                    .unwrap()
            })
        })
        .collect();

    // All duplicates must be parked on the single in-flight job before the
    // search is allowed to proceed.
    let start = Instant::now();
    while handle.stats().dedup_joins < CLIENTS - 1 {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "clients never joined the in-flight job: {:?}",
            handle.stats()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    backend.release();

    let replies: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    let stats = handle.stats();
    assert_eq!(stats.tunes_run, 1, "exactly one search may run: {stats:?}");
    assert_eq!(stats.dedup_joins, CLIENTS - 1);
    assert_eq!(stats.cache_hits, 0);

    let first = &replies[0];
    assert!(first.measured > 0);
    // The one shared search sent each recorded trial to the backend exactly
    // once — the duplicates caused no measurements of their own.
    assert_eq!(
        backend.measured_jobs.load(Ordering::SeqCst),
        first.measured,
        "jobs the backend measured must equal the single search's trials"
    );
    for reply in &replies {
        assert!(!reply.cache_hit);
        assert_eq!(reply.trace, first.trace, "all clients get the same trace");
        assert_eq!(reply.latency_s, first.latency_s);
    }
    assert_eq!(
        replies.iter().filter(|r| r.deduped).count(),
        CLIENTS - 1,
        "every client but the initiator rode along"
    );

    handle.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// Distinct shapes are distinct jobs: no false dedup across keys.
#[test]
fn distinct_shapes_tune_separately() {
    let session = Session::builder()
        .backend(AnalyticBackend::new(UpmemConfig::default()))
        .build();
    let handle = serve(session, "127.0.0.1:0", ServeOptions::default()).unwrap();
    let client = Client::new(handle.addr());
    let a = client
        .tune(&TuneRequest::quick("mtv", vec![512, 512]))
        .unwrap();
    let b = client
        .tune(&TuneRequest::quick("mtv", vec![1024, 512]))
        .unwrap();
    assert!(!a.cache_hit && !b.cache_hit);
    assert_eq!(handle.stats().tunes_run, 2);
    handle.shutdown();
}

/// The cache-hit round trip — connect, frame, lookup, frame — answers well
/// inside a generous wall-clock bound, with zero measurements.
#[test]
fn cache_hit_round_trips_stay_fast() {
    let path = temp_cache("atim_serve_hit_latency_test.jsonl");
    let session = Session::builder()
        .backend(AnalyticBackend::new(UpmemConfig::default()))
        .schedule_cache(&path)
        .build();
    let handle = serve(session, "127.0.0.1:0", ServeOptions::default()).unwrap();
    let client = Client::new(handle.addr());
    let request = TuneRequest::quick("ttv", vec![64, 64, 512]);

    let miss = client.tune(&request).unwrap();
    assert!(!miss.cache_hit);

    const HITS: usize = 10;
    let start = Instant::now();
    for _ in 0..HITS {
        let hit = client.tune(&request).unwrap();
        assert!(hit.cache_hit);
        assert_eq!(hit.measured, 0);
        assert_eq!(hit.trace, miss.trace);
    }
    let elapsed = start.elapsed();
    // Microseconds in practice; the bound only guards against the hit path
    // accidentally measuring or re-searching.
    assert!(
        elapsed < Duration::from_secs(5),
        "{HITS} cache hits took {elapsed:?}"
    );

    let stats = handle.stats();
    assert_eq!(stats.cache_hits, HITS);
    assert_eq!(stats.tunes_run, 1);
    handle.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// A prebuilt cache file is the whole point of "ship the cache": a server
/// restarted on the same file answers its first request as a hit.
#[test]
fn restarted_server_hits_the_shipped_cache() {
    let path = temp_cache("atim_serve_restart_test.jsonl");
    let request = TuneRequest::quick("red", vec![1 << 20]);

    let build = || {
        Session::builder()
            .backend(AnalyticBackend::new(UpmemConfig::default()))
            .schedule_cache(&path)
            .build()
    };
    let first = serve(build(), "127.0.0.1:0", ServeOptions::default()).unwrap();
    let miss = Client::new(first.addr()).tune(&request).unwrap();
    assert!(!miss.cache_hit);
    first.shutdown();

    let second = serve(build(), "127.0.0.1:0", ServeOptions::default()).unwrap();
    let hit = Client::new(second.addr()).tune(&request).unwrap();
    assert!(hit.cache_hit, "restart must serve from the shipped cache");
    assert_eq!(hit.trace, miss.trace);
    assert_eq!(hit.latency_s, miss.latency_s);
    assert_eq!(second.stats().tunes_run, 0);
    second.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// Watching duplicates stream progress from the one shared search.
#[test]
fn joined_watchers_see_the_shared_searchs_progress() {
    let backend = GatedBackend::new();
    let session = Session::builder().backend_arc(backend.clone()).build();
    let handle = serve(session, "127.0.0.1:0", ServeOptions::default()).unwrap();
    let client = Client::new(handle.addr());
    let mut request = TuneRequest::quick("va", vec![1 << 22]);
    request.watch = true;

    let watcher = {
        let client = client.clone();
        let request = request.clone();
        std::thread::spawn(move || {
            let mut seen = 0usize;
            let reply = client.tune_watch(&request, |_| seen += 1).unwrap();
            (seen, reply)
        })
    };
    let joiner = {
        let client = client.clone();
        let request = request.clone();
        std::thread::spawn(move || {
            let mut seen = 0usize;
            let reply = client.tune_watch(&request, |_| seen += 1).unwrap();
            (seen, reply)
        })
    };

    let start = Instant::now();
    while handle.stats().dedup_joins < 1 {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "second watcher never joined"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    backend.release();

    let (seen_a, reply_a) = watcher.join().unwrap();
    let (seen_b, reply_b) = joiner.join().unwrap();
    assert_eq!(reply_a.trace, reply_b.trace);
    // Both subscribed before any measurement (the gate was closed), so both
    // saw every per-trial frame of the single shared search.
    assert_eq!(seen_a, reply_a.measured);
    assert_eq!(seen_b, reply_b.measured);
    assert_eq!(handle.stats().tunes_run, 1);
    handle.shutdown();
}
