//! fleet-live and session-churn: one client thread drives an
//! in-process `loa_serve::serve` over one loopback connection.

use crate::audit;
use crate::inputs::{mix, Expected};
use crate::report::Tally;
use crate::setup::Ready;
use crate::{Measured, Res};
use loa_data::{Frame, SceneData};
use loa_serve::protocol::{read_response, write_preamble, write_request};
use loa_serve::{Request, Response, ServiceCfg, SessionStats, Worklist};
use std::io::{BufReader, BufWriter, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// Every `n`-th released frame of session churn is sent twice.
pub const DUP_EVERY: u64 = 4;
/// Session churn shuffles each session's frames within this many
/// positions (below the reorder window, so nothing is rejected).
pub const LATE: u32 = 3;
/// session-churn's measured units are windows of this many frames.
const CHURN_WINDOW_FRAMES: usize = 5000;
/// A timed fleet-live run goes on until its kept units hold this many
/// sessions, so that the session p90 has ten samples beyond it...
const FLEET_MIN_SESSIONS: usize = 100;
/// ...or until it has measured this long.
const FLEET_MAX_SECONDS: f64 = 90.0;

/// Where the traffic loops send their requests: a TCP connection to
/// `loa_serve::serve`, or (in the traced run) an in-process
/// `AuditService`.
pub trait Transport {
    fn open(&mut self, session: u32, scene_id: &str, frame_dt: f64) -> Res<()>;
    /// Fire-and-forget: no reply is read.
    fn frame(&mut self, session: u32, frame: &Frame) -> Res<()>;
    fn stats(&mut self, session: u32) -> Res<SessionStats>;
    fn close(&mut self, session: u32) -> Res<Worklist>;
}

/// When a traffic loop stops: after a time, or after a number of units (a
/// fleet cycle over every scene; a churned session opened).
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    After(f64),
    Units(usize),
}

impl Stop {
    fn reached(self, start: Instant, units: usize) -> bool {
        match self {
            Stop::After(seconds) => start.elapsed().as_secs_f64() >= seconds,
            Stop::Units(n) => units >= n,
        }
    }
}

/// A protocol client over one connection: `loa_serve::FeedClient`'s
/// requests, built from the same `loa_serve::protocol` functions, on a
/// socket with Nagle's algorithm off.
///
/// `FeedClient` leaves Nagle on. Fire-and-forget frames followed by a
/// `CLOSE` then wait for the server's delayed ACK: measured on
/// session-churn, every session stalls ~25 ms and the run measures the
/// kernel's ACK timer instead of the server (~1,000 frames/s instead of
/// ~25,000 frames/s).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Res<Client> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut writer = BufWriter::new(stream);
        write_preamble(&mut writer).map_err(|e| e.to_string())?;
        Ok(Client { reader, writer })
    }

    fn send(&mut self, req: &Request) -> Res<()> {
        write_request(&mut self.writer, req).map_err(|e| format!("send: {e}"))
    }

    fn call(&mut self, req: &Request) -> Res<Response> {
        self.send(req)?;
        self.writer.flush().map_err(|e| format!("send: {e}"))?;
        match read_response(&mut self.reader).map_err(|e| format!("receive: {e}"))? {
            Some(Response::Error { message, .. }) => Err(format!("server: {message}")),
            Some(resp) => Ok(resp),
            None => Err("server closed the connection".into()),
        }
    }

    pub fn shutdown(mut self) -> Res<()> {
        match self.call(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(format!("expected BYE, got {other:?}")),
        }
    }
}

impl Transport for Client {
    fn open(&mut self, session: u32, scene_id: &str, frame_dt: f64) -> Res<()> {
        match self.call(&Request::Open { session, scene_id: scene_id.to_string(), frame_dt })? {
            Response::Opened { session: s } if s == session => Ok(()),
            other => Err(format!("expected OPENED, got {other:?}")),
        }
    }

    /// Buffered until the next request.
    fn frame(&mut self, session: u32, frame: &Frame) -> Res<()> {
        self.send(&Request::Frame { session, record: loa_ingest::encode_frame_record(frame) })
    }

    fn stats(&mut self, session: u32) -> Res<SessionStats> {
        match self.call(&Request::Stats { session })? {
            Response::Stats { session: s, stats } if s == session => Ok(stats),
            other => Err(format!("expected STATS, got {other:?}")),
        }
    }

    fn close(&mut self, session: u32) -> Res<Worklist> {
        match self.call(&Request::Close { session })? {
            Response::Worklist { session: s, worklist } if s == session => Ok(worklist),
            other => Err(format!("expected WORKLIST, got {other:?}")),
        }
    }
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Keep the calling thread, and every thread it starts from now on, on
/// the CPU it is running on.
///
/// The served workloads run their client and handler threads on one
/// CPU. Each frame then hands over between them by a context switch on
/// that CPU. Spread over two virtual CPUs, each handover is a wake-up of
/// the other CPU, which waits whenever the host has taken that CPU
/// away; measured on a 2-CPU virtual machine, that made fleet-live's
/// throughput vary by ±20% from run to run, and by ±7% when pinned.
pub fn pin_to_current_cpu() -> Res<()> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads the
    // calling thread's state.
    let cpu = unsafe { sched_getcpu() };
    if !(0..64).contains(&cpu) {
        return Err(format!("cannot pin to CPU {cpu}"));
    }
    let mask: u64 = 1 << cpu;
    // SAFETY: `mask` is a live, initialised 8-byte CPU set and the size
    // passed is its size; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
    if rc != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(())
}

/// Run `drive` against a server on `ready`'s listener, then stop the
/// server and wait for it. The server is stopped even when `drive`
/// fails, over a connection of its own.
pub fn with_server<T>(ready: &Ready, drive: impl FnOnce(SocketAddr) -> Res<T>) -> Res<T> {
    let (ctx, listener) = ready.serve.as_ref().expect("served workloads bind at set-up");
    let listener = listener.try_clone().map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    std::thread::scope(|scope| {
        let server = scope.spawn(move || loa_serve::serve(listener, ctx, ServiceCfg::default()));
        let out = drive(addr);
        let stop = Client::connect(addr).and_then(Client::shutdown);
        let served = server.join().map_err(|_| "server thread panicked".to_string())?;
        served.map_err(|e| format!("server: {e}"))?;
        stop?;
        out
    })
}

/// Check a closed session's worklist and delivery stats.
fn check_worklist(tally: &mut Tally, wl: &Worklist, want: Expected, frames: u64, dups: u64) {
    let s = &wl.stats;
    tally.check(
        audit::digest_entries(&wl.entries) == want.served && wl.entries.len() == want.len,
        || format!("{}: served worklist differs from batch rank", wl.scene_id),
    );
    tally.check(
        s.frames == frames && s.duplicates_dropped == dups && s.rejected == 0 && s.stranded == 0,
        || {
            format!(
                "{}: delivery stats {s:?}, expected {frames} frames and {dups} duplicates",
                wl.scene_id
            )
        },
    );
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// fleet-live: sets of `concurrent` long scenes streamed round-robin
/// and in order, each `FRAME` followed by a `STATS` barrier. Runs whole
/// cycles over every set until `stop` (counted in cycles) and, when
/// timed, until [`FLEET_MIN_SESSIONS`] sessions are kept; the
/// throughput samples are one per set.
pub fn fleet(
    client: &mut impl Transport,
    scenes: &[SceneData],
    expected: &[Expected],
    concurrent: usize,
    stop: Stop,
    tally: &mut Tally,
) -> Res<Measured> {
    let mut m = Measured::default();
    let start = Instant::now();
    let mut cycles = 0;
    loop {
        for (set_index, set) in scenes.chunks(concurrent).enumerate() {
            m.start_unit();
            let mut opened = Vec::with_capacity(set.len());
            for (sid, data) in set.iter().enumerate() {
                opened.push(Instant::now());
                client.open(sid as u32, &data.id, data.frame_dt)?;
            }
            let longest = set.iter().map(|d| d.frames.len()).max().unwrap_or(0);
            for k in 0..longest {
                for (sid, data) in set.iter().enumerate() {
                    let Some(frame) = data.frames.get(k) else { continue };
                    let t0 = Instant::now();
                    client.frame(sid as u32, frame)?;
                    let stats = client.stats(sid as u32)?;
                    m.frame_ms.push((ms_since(t0), 1.0));
                    tally.check(stats.frames == k as u64 + 1, || {
                        format!(
                            "{}: STATS after frame {k} reports {} frames",
                            data.id, stats.frames
                        )
                    });
                }
            }
            for (sid, data) in set.iter().enumerate() {
                let wl = client.close(sid as u32)?;
                m.session_ms.push(ms_since(opened[sid]));
                let want = expected[set_index * concurrent + sid];
                check_worklist(tally, &wl, want, data.frames.len() as u64, 0);
            }
            let frames: usize = set.iter().map(|d| d.frames.len()).sum();
            m.end_unit(set_index, frames);
        }
        // Whole cycles only, so every run streams the same mix.
        cycles += 1;
        let few_sessions = matches!(stop, Stop::After(_))
            && m.kept_sessions() < FLEET_MIN_SESSIONS
            && start.elapsed().as_secs_f64() < FLEET_MAX_SECONDS;
        if stop.reached(start, cycles) && !few_sessions {
            return Ok(m);
        }
    }
}

/// Delivery order for `n` frames where none lands more than `late`
/// positions from its index (the `fixy feed --late` shuffle).
pub fn delivery_order(n: usize, late: u32, seed: u64) -> Vec<usize> {
    let mut keyed: Vec<(u64, usize)> = (0..n)
        .map(|i| (i as u64 + mix(seed, i as u64) % (u64::from(late) + 1), i))
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// Which pool scene session `n` of a run replays, and the frame
/// indices in the order they are sent: shuffled within `LATE`
/// positions, every `DUP_EVERY`-th frame sent a second time. Both are
/// fixed by the seed.
pub fn churn_session(seed: u64, n: u64, pool: &[SceneData]) -> (usize, Vec<Send>) {
    let scene = (mix(seed, n) % pool.len() as u64) as usize;
    let order = delivery_order(pool[scene].frames.len(), LATE, mix(!seed, n));
    let mut sends = Vec::with_capacity(order.len() + order.len() / DUP_EVERY as usize);
    for (k, &frame) in order.iter().enumerate() {
        sends.push(Send { frame, duplicate: false });
        if (k as u64 + 1).is_multiple_of(DUP_EVERY) {
            sends.push(Send { frame, duplicate: true });
        }
    }
    (scene, sends)
}

/// One frame sent in a churned session.
#[derive(Debug, Clone, Copy)]
pub struct Send {
    pub frame: usize,
    /// A second copy of the frame sent just before.
    pub duplicate: bool,
}

struct Slot {
    sid: u32,
    scene: usize,
    sends: Vec<Send>,
    cursor: usize,
    opened: Instant,
    sent: Vec<Instant>,
}

fn open_slot(client: &mut impl Transport, seed: u64, n: u64, pool: &[SceneData]) -> Res<Slot> {
    let (scene, sends) = churn_session(seed, n, pool);
    let opened = Instant::now();
    client.open(n as u32, &pool[scene].id, pool[scene].frame_dt)?;
    Ok(Slot {
        sid: n as u32,
        scene,
        sends,
        cursor: 0,
        opened,
        sent: Vec::new(),
    })
}

/// session-churn: `concurrent` short sessions open at once, frames
/// shuffled and duplicated, fire-and-forget; each finished session is
/// closed and replaced at once until `stop` (counted in sessions
/// opened).
pub fn churn(
    client: &mut impl Transport,
    seed: u64,
    pool: &[SceneData],
    expected: &[Expected],
    concurrent: usize,
    stop: Stop,
    tally: &mut Tally,
) -> Res<Measured> {
    let mut m = Measured::default();
    let start = Instant::now();
    let mut slots: Vec<Option<Slot>> = Vec::with_capacity(concurrent);
    for n in 0..concurrent {
        slots.push(Some(open_slot(client, seed, n as u64, pool)?));
    }
    let mut opened = concurrent;
    let mut window = 0;
    m.start_unit();
    while slots.iter().any(Option::is_some) {
        for entry in slots.iter_mut() {
            let Some(slot) = entry else { continue };
            let data = &pool[slot.scene];
            let send = slot.sends[slot.cursor];
            client.frame(slot.sid, &data.frames[send.frame])?;
            slot.cursor += 1;
            if !send.duplicate {
                slot.sent.push(Instant::now());
                window += 1;
                if window == CHURN_WINDOW_FRAMES {
                    // Wait until the server has handled every frame sent,
                    // so the window's time covers them and the calibration
                    // kernel after it runs with the handler idle.
                    client.stats(slot.sid)?;
                    m.end_unit(0, window);
                    m.start_unit();
                    window = 0;
                }
            }
            if slot.cursor < slot.sends.len() {
                continue;
            }
            let wl = client.close(slot.sid)?;
            let done = Instant::now();
            m.session_ms.push((done - slot.opened).as_secs_f64() * 1e3);
            m.frame_ms
                .extend(slot.sent.iter().map(|&t| ((done - t).as_secs_f64() * 1e3, 1.0)));
            let frames = data.frames.len() as u64;
            check_worklist(
                tally,
                &wl,
                expected[slot.scene],
                frames,
                slot.sends.len() as u64 - frames,
            );
            *entry = if stop.reached(start, opened) {
                None
            } else {
                opened += 1;
                Some(open_slot(client, seed, opened as u64 - 1, pool)?)
            };
        }
    }
    // The last window is partial and left out, unless it is the only one.
    if !m.has_units() {
        m.end_unit(0, window);
    }
    Ok(m)
}
