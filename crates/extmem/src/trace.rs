//! I/O-attributing spans: [`IoSpan`] glues `ce-obs` tracing to this crate's
//! logical [`IoStats`](crate::stats::IoStats) and the pager's physical
//! counters.
//!
//! `ce-obs` deliberately knows nothing about the I/O model — a span closes
//! with opaque `(name, u64)` counter deltas. [`IoSpan`] is the adapter that
//! fills them in: it snapshots the environment's logical and physical
//! counters when opened and reports the difference when dropped, under the
//! fixed counter names below. All engine instrumentation goes through it
//! (directly or via [`io_span!`](crate::io_span)), so every sink sees one
//! consistent vocabulary:
//!
//! | counter   | meaning                                             |
//! |-----------|-----------------------------------------------------|
//! | `ios`     | total logical block I/Os (the paper's metric)       |
//! | `seq`     | logical sequential reads + writes                   |
//! | `rand`    | logical random reads + writes                       |
//! | `bytes`   | logical bytes read + written                        |
//! | `phys`    | physical block transfers between pool and file      |
//!
//! When tracing is disabled ([`ce_obs::enabled`] is false) constructing an
//! `IoSpan` performs no snapshot, no clock read, and no allocation — the
//! steady-state zero-allocation test runs inside one to pin that.

use std::time::Instant;

use crate::env::DiskEnv;
use crate::stats::IoSnapshot;
use ce_pager::PhysSnapshot;

/// RAII span that attributes the logical/physical I/O consumed between its
/// creation and drop to a named node of the trace tree. Create via
/// [`DiskEnv::io_span`] or the [`io_span!`](crate::io_span) macro.
pub struct IoSpan {
    inner: Option<Active>,
}

struct Active {
    span: ce_obs::Span,
    env: DiskEnv,
    io0: IoSnapshot,
    phys0: PhysSnapshot,
    t0: Instant,
}

impl IoSpan {
    /// Opens an I/O-attributing span over `env`'s counters. Inert (and
    /// cost-free beyond one branch) when tracing is disabled.
    pub fn start(env: &DiskEnv, name: &'static str, fields: &[ce_obs::Field]) -> IoSpan {
        if !ce_obs::enabled() {
            return IoSpan { inner: None };
        }
        // Snapshot *before* opening the span so a sink that accounts strictly
        // by event order never sees I/O the delta misses (spans themselves do
        // no I/O, but the discipline is free).
        let io0 = env.stats().snapshot();
        let phys0 = env.phys();
        IoSpan {
            inner: Some(Active {
                span: ce_obs::Span::new(name, fields),
                env: env.clone(),
                io0,
                phys0,
                t0: Instant::now(),
            }),
        }
    }

    /// True when tracing was enabled at creation.
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for IoSpan {
    fn drop(&mut self) {
        let Some(active) = self.inner.take() else {
            return;
        };
        let io = active.env.stats().snapshot().since(&active.io0);
        let phys = active.env.phys().since(&active.phys0);
        active.span.close(
            &[
                ("ios", io.total_ios()),
                ("seq", io.sequential_ios()),
                ("rand", io.random_ios()),
                ("bytes", io.bytes_read + io.bytes_written),
                ("phys", phys.transfers()),
            ],
            active.t0.elapsed().as_nanos() as u64,
        );
    }
}

/// Opens an [`IoSpan`] on a [`DiskEnv`]: `io_span!(env, "get_v", iter = i)`.
/// Field values are cast to `u64`. Bind the result (`let _sp = ...`) or the
/// span closes immediately.
#[macro_export]
macro_rules! io_span {
    ($env:expr, $name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        $crate::trace::IoSpan::start($env, $name, &[$((stringify!($k), $v as u64)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IoConfig;
    use ce_obs::MemSink;
    use std::rc::Rc;

    #[test]
    fn io_span_reports_exact_logical_delta() {
        let env = DiskEnv::new_temp(IoConfig::small_for_tests()).unwrap();
        // Warm-up I/O outside any span must not be attributed.
        let pre = env.file_from_slice("pre", &[1u32, 2, 3]).unwrap();
        drop(pre);

        let sink = Rc::new(MemSink::new());
        let guard = ce_obs::install(sink.clone());
        let before = env.stats().snapshot();
        {
            let _outer = io_span!(&env, "outer", level = 1u32);
            let f = {
                let _inner = io_span!(&env, "inner");
                env.file_from_slice("in-span", &(0..1000u32).collect::<Vec<_>>()).unwrap()
            };
            let _ = f.read_all().unwrap();
        }
        let total = env.stats().snapshot().since(&before).total_ios();
        drop(guard);

        let roots = sink.take();
        assert_eq!(roots.len(), 1);
        let outer = &roots[0];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.fields, vec![("level", 1)]);
        assert_eq!(outer.counter("ios"), Some(total));
        // Child + self partition the parent exactly.
        let inner = &outer.children[0];
        assert_eq!(inner.name, "inner");
        assert_eq!(
            inner.counter("ios").unwrap() + outer.self_counter("ios"),
            total
        );
        assert!(inner.counter("ios").unwrap() > 0);
        assert!(outer.self_counter("ios") > 0, "the read_all happened outside `inner`");
        assert!(outer.counter("phys").is_some());
    }

    #[test]
    fn disabled_io_span_is_inert() {
        let env = DiskEnv::new_temp(IoConfig::small_for_tests()).unwrap();
        let sp = io_span!(&env, "nothing");
        assert!(!sp.is_active());
    }
}
