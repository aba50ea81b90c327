//! The interface every benchmark workload implements.

use rbv_par::Pool;

use crate::report::Rep;
use crate::spans::Tracer;

/// Per-layer values of one traced run, by catalogue name.
pub type Layers = Vec<(&'static str, f64)>;

/// Where a traced call records its spans: the tracer and the run id.
pub type Trace<'a> = Option<(&'a Tracer, u32)>;

/// One benchmark workload.
pub trait Workload {
    /// One set-up: everything that happens before the first simulated
    /// request (spec validation, factory construction, capacity probe).
    fn setup(&self);

    /// One full run of the workload on `pool`, with its outputs checked.
    fn run(&self, pool: &Pool) -> Rep;

    /// [`Workload::run`], calling `lap` between the parts of the run, so
    /// a timed run can measure the host's speed between them. One part
    /// unless the workload says otherwise.
    fn run_in_laps(&self, pool: &Pool, _lap: &mut dyn FnMut()) -> Rep {
        self.run(pool)
    }

    /// Pool threads the timed runs use, given `nproc`.
    fn timed_threads(&self, nproc: usize) -> usize {
        nproc
    }

    /// The unit the traced run repeats, with spans recorded when `trace`
    /// is given. Tracing must not change the returned digest.
    fn unit(&self, pool: &Pool, trace: Trace<'_>) -> (Rep, Layers);

    /// The traced full run, made once before the traced units; its digest
    /// must equal [`Workload::run`]'s.
    fn traced_run(&self, pool: &Pool, tracer: &Tracer, run: u32) -> (Rep, Layers) {
        self.unit(pool, Some((tracer, run)))
    }
}

/// Runs `f`, inside a span named `name` when tracing.
pub fn maybe_span<R>(
    trace: Trace<'_>,
    name: &'static str,
    parent: Option<u64>,
    f: impl FnOnce(Option<u64>) -> R,
) -> R {
    match trace {
        Some((tracer, run)) => tracer.span(name, parent, run, |id| f(Some(id))),
        None => f(None),
    }
}
