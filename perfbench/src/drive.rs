//! The wire client: loopback connections driving a daemon with generated
//! jobs, timing each from writing its `Submit` to reading its terminal frame.
//!
//! Connections are opened exactly as the shipped [`mffv_serve::Client`]
//! opens them (a plain `TcpStream::connect`, no socket options), and speak
//! the shipped [`Frame`] API, so only changes to the daemon move the numbers.
//! Unlike `Client::run_job`, a connection may keep several jobs in flight.

use crate::gen::Job;
use crate::verify::{Verdict, WorkloadCache};
use mffv_serve::{Frame, WireError};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// Longest wait for any one frame (a paper-size job takes about 10 s).
const READ_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(60);

/// `Done` frames a traced drive keeps.
pub const KEPT_DONE_FRAMES: usize = 16;

/// What the client saw of one job.
#[derive(Debug)]
pub struct JobRecord {
    /// The job as generated.
    pub job: Job,
    /// Seconds from writing `Submit` to reading the terminal frame.
    pub latency_s: f64,
    /// The report's `host_wall_seconds` (0 when the job did not finish).
    pub host_wall_s: f64,
    /// Krylov iterations of the report.
    pub iterations: usize,
    /// The report's backend name.
    pub backend: String,
    /// Modelled device seconds, for backends that model a device.
    pub modelled_s: Option<f64>,
    /// Frames exchanged for this job, both directions.
    pub frames: u64,
    /// Computed wire bytes of those frames (0 unless counting was asked for).
    pub bytes: u64,
    /// The correctness verdict.
    pub verdict: Verdict,
}

/// Client options for one [`drive`] call.
#[derive(Clone, Copy, Debug)]
pub struct DriveOptions {
    /// Connections opened in parallel.
    pub connections: usize,
    /// Jobs each connection keeps in flight.
    pub window: usize,
    /// Jobs each connection submits at most (`None`: until the source ends).
    pub jobs_per_connection: Option<usize>,
    /// End of the measured window.  A connection starts no job it expects
    /// to end past it, judging by the latency of its previous job, so that a
    /// stream of long jobs does not overshoot the window by a whole job.
    pub deadline: Option<Instant>,
    /// Traced run: re-encode every frame to count its wire bytes, and keep
    /// up to [`KEPT_DONE_FRAMES`] `Done` frames for the codec probes.
    pub traced: bool,
}

/// Everything one [`drive`] call observed.
#[derive(Debug, Default)]
pub struct DriveResult {
    /// One record per job that reached a terminal frame or was lost.
    pub records: Vec<JobRecord>,
    /// Seconds from the start of the call to the last terminal frame.
    pub wall_s: f64,
    /// `Submit` frames written.
    pub submitted: u64,
    /// `Busy` replies received.
    pub busy: u64,
    /// Kept `Done` frames.
    pub done_frames: Vec<Frame>,
}

/// What one connection tracks while its session runs.
#[derive(Default)]
struct ConnectionState {
    out: DriveResult,
    in_flight: BTreeMap<u64, InFlight>,
    cache: WorkloadCache,
}

struct InFlight {
    job: Job,
    submitted: Instant,
    next_seq: u64,
    frames: u64,
    bytes: u64,
}

/// Drive `options.connections` connections to `addr`, each submitting jobs
/// from `next_job` (shared; `None` ends submission) until it has nothing in
/// flight.  Jobs lost to a wire error are recorded as failed.
pub fn drive(
    addr: SocketAddr,
    options: DriveOptions,
    next_job: &(dyn Fn() -> Option<Job> + Sync),
) -> DriveResult {
    let started = Instant::now();
    let results: Vec<DriveResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..options.connections)
            .map(|c| scope.spawn(move || connection(addr, c, options, next_job, started)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client connection thread panicked"))
            .collect()
    });
    let mut total = DriveResult::default();
    for mut r in results {
        total.records.append(&mut r.records);
        total.submitted += r.submitted;
        total.busy += r.busy;
        total.wall_s = total.wall_s.max(r.wall_s);
        let room = KEPT_DONE_FRAMES.saturating_sub(total.done_frames.len());
        total
            .done_frames
            .extend(r.done_frames.into_iter().take(room));
    }
    total.records.sort_by_key(|r| r.job.index);
    total
}

fn failed(job: Job, latency_s: f64, frames: u64, bytes: u64, why: String) -> JobRecord {
    JobRecord {
        job,
        latency_s,
        host_wall_s: 0.0,
        iterations: 0,
        backend: String::new(),
        modelled_s: None,
        frames,
        bytes,
        verdict: Verdict::Failed(why),
    }
}

fn connection(
    addr: SocketAddr,
    index: usize,
    options: DriveOptions,
    next_job: &(dyn Fn() -> Option<Job> + Sync),
    started: Instant,
) -> DriveResult {
    let mut state = ConnectionState::default();
    if let Err(why) = session(addr, index, options, next_job, started, &mut state) {
        // Whatever was still in flight is lost with the connection.
        for (_, f) in std::mem::take(&mut state.in_flight) {
            let latency = f.submitted.elapsed().as_secs_f64();
            let why = format!("wire error: {why}");
            state
                .out
                .records
                .push(failed(f.job, latency, f.frames, f.bytes, why));
        }
    }
    state.out
}

fn wire_len(frame: &Frame, count: bool) -> u64 {
    if count {
        frame.to_wire_bytes().len() as u64
    } else {
        0
    }
}

fn session(
    addr: SocketAddr,
    index: usize,
    options: DriveOptions,
    next_job: &(dyn Fn() -> Option<Job> + Sync),
    started: Instant,
    state: &mut ConnectionState,
) -> Result<(), WireError> {
    let ConnectionState {
        out,
        in_flight,
        cache,
    } = state;
    let mut stream = TcpStream::connect(addr)?;
    // A receive deadline only, so a daemon that stops answering fails the
    // run instead of hanging it; the socket's TCP behaviour stays the
    // shipped client's.
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    Frame::Hello {
        client: format!("perfbench-{index}"),
    }
    .write_to(&mut stream)?;
    match Frame::read_from(&mut stream)? {
        Some(Frame::Welcome { .. }) => {}
        other => {
            return Err(WireError::Malformed(format!(
                "expected Welcome, got {:?}",
                other.map(|f| f.name())
            )))
        }
    }
    let mut next_id: u64 = 1;
    let mut exhausted = false;
    let mut last_latency = std::time::Duration::ZERO;
    loop {
        while !exhausted && in_flight.len() < options.window {
            let past_deadline = options
                .deadline
                .is_some_and(|deadline| Instant::now() + last_latency >= deadline);
            if past_deadline
                || options
                    .jobs_per_connection
                    .is_some_and(|limit| out.submitted as usize >= limit)
            {
                exhausted = true;
                break;
            }
            let Some(job) = next_job() else {
                exhausted = true;
                break;
            };
            let job_id = next_id;
            next_id += 1;
            let frame = Frame::Submit {
                job_id,
                spec: Box::new(job.spec.clone()),
            };
            let bytes = wire_len(&frame, options.traced);
            let submitted = Instant::now();
            frame.write_to(&mut stream)?;
            out.submitted += 1;
            in_flight.insert(
                job_id,
                InFlight {
                    job,
                    submitted,
                    next_seq: 0,
                    frames: 1,
                    bytes,
                },
            );
        }
        if in_flight.is_empty() {
            break;
        }
        let frame = Frame::read_from(&mut stream)?
            .ok_or_else(|| WireError::Io("daemon closed the connection mid-job".to_string()))?;
        let now = Instant::now();
        out.wall_s = now.duration_since(started).as_secs_f64();
        let bytes = wire_len(&frame, options.traced);
        let id = match &frame {
            Frame::Accepted { job_id }
            | Frame::Event { job_id, .. }
            | Frame::Done { job_id, .. }
            | Frame::Stopped { job_id, .. }
            | Frame::JobFailed { job_id, .. }
            | Frame::Rejected { job_id, .. }
            | Frame::Busy { job_id, .. } => *job_id,
            Frame::Pong { .. } | Frame::ShuttingDown => continue,
            other => {
                return Err(WireError::Malformed(format!(
                    "unexpected {} frame mid-job",
                    other.name()
                )))
            }
        };
        let Some(flight) = in_flight.get_mut(&id) else {
            return Err(WireError::Malformed(format!("frame for unknown job {id}")));
        };
        flight.frames += 1;
        flight.bytes += bytes;
        if let Frame::Event { seq, .. } = &frame {
            if *seq != flight.next_seq {
                return Err(WireError::Malformed(format!(
                    "event sequence gap: got {seq}, expected {}",
                    flight.next_seq
                )));
            }
            flight.next_seq += 1;
            continue;
        }
        if matches!(frame, Frame::Accepted { .. }) {
            continue;
        }
        // A terminal frame.
        let f = in_flight
            .remove(&id)
            .expect("terminal frame for a known job");
        last_latency = now.duration_since(f.submitted);
        let latency_s = last_latency.as_secs_f64();
        let record = match frame {
            Frame::Done { report, .. } => {
                let verdict = crate::verify::check_done(&f.job, &report, cache);
                let record = JobRecord {
                    job: f.job,
                    latency_s,
                    host_wall_s: report.host_wall_seconds,
                    iterations: report.iterations(),
                    backend: report.backend.clone(),
                    modelled_s: report.modelled_time(),
                    frames: f.frames,
                    bytes: f.bytes,
                    verdict,
                };
                if options.traced && out.done_frames.len() < KEPT_DONE_FRAMES {
                    out.done_frames.push(Frame::Done { job_id: id, report });
                }
                record
            }
            Frame::Busy {
                depth, capacity, ..
            } => {
                out.busy += 1;
                failed(
                    f.job,
                    latency_s,
                    f.frames,
                    f.bytes,
                    format!("Busy {depth}/{capacity}"),
                )
            }
            Frame::Stopped { reason, .. } => failed(
                f.job,
                latency_s,
                f.frames,
                f.bytes,
                format!("Stopped: {reason:?}"),
            ),
            Frame::JobFailed { error, .. } => failed(
                f.job,
                latency_s,
                f.frames,
                f.bytes,
                format!("JobFailed: {error}"),
            ),
            Frame::Rejected { reason, .. } => failed(
                f.job,
                latency_s,
                f.frames,
                f.bytes,
                format!("Rejected: {reason}"),
            ),
            _ => unreachable!("only terminal frames reach this point"),
        };
        out.records.push(record);
    }
    // End the session politely and wait for the daemon's echo.
    Frame::Goodbye.write_to(&mut stream)?;
    let _ = Frame::read_from(&mut stream);
    Ok(())
}
