//! The serving workloads: `orbit2_serve::serve` hosted in this process on
//! loopback TCP, driven by two load-generator threads over two connections.
//!
//! Each thread owns one connection and both sends and reads on it. The
//! open-loop phase sends at a fixed period whatever the replies do (the
//! seed chooses each request's input and the order), and times every
//! request from when it was *due*, so a stall is charged to every request
//! queued behind it. The closed-loop phase keeps a fixed window of requests
//! outstanding per connection, cycling through its planned requests until
//! the phase ends, and counts successful completions per second. Every
//! reply is checked bit for bit against a reference computed before timing
//! starts.

use crate::stats::{self, Rng};
use crate::sys;
use crate::trace::Tracer;
use orbit2::fault::FaultPlan;
use orbit2::serving::ServeRequest;
use orbit2::{downscale_with, ServeResponse};
use orbit2_climate::{DownscalingDataset, LatLonGrid, Normalizer, VariableSet};
use orbit2_model::{ModelConfig, ReslimModel, SessionActivation, SessionPrecision};
use orbit2_serve::{Client, Region, Server, ServerConfig, ServerReply};
use orbit2_tensor::Tensor;
use rayon::prelude::*;
use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Connections, and load-generator threads (one per connection).
pub const CONNECTIONS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// Refinement factor of `orbit2-serve`'s model.
pub const FACTOR: usize = 4;

/// One serving workload.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Model the server hosts (channels already set).
    pub model: ModelConfig,
    /// Fine grid of the server's two regions.
    pub grid: (usize, usize),
    /// Time steps per region.
    pub samples: usize,
    /// Share of requests that carry a raw field instead of naming a region.
    pub raw_share: f64,
    /// Distinct raw fields.
    pub raw_pool: usize,
    /// Every `bf16_every`-th request asks for bf16 weights (0 = never).
    pub bf16_every: u64,
    /// Region time index is `floor(samples * u^time_skew)`, `u` uniform:
    /// a skew toward early indices, so a share of requests repeat.
    pub time_skew: f64,
    /// Offered rate of the open-loop phase, requests per second.
    pub rate_rps: f64,
    /// Latency limit for goodput, ms.
    pub limit_ms: f64,
    /// Requests each connection keeps outstanding in the closed loop.
    pub window: usize,
}

/// Where a request's input comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Input {
    /// Region `region` (0 = conus, 1 = global) at a time index.
    Region { region: usize, time: usize },
    /// Raw field number `field` of the client's pool.
    Raw { field: usize },
}

/// One planned request.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// Request id (unique within a run).
    pub id: u64,
    /// Connection it is sent on.
    pub conn: usize,
    /// Due time after the phase start, µs (0 in the closed loop).
    pub due_us: u64,
    /// Input.
    pub input: Input,
    /// Ask for bf16 weights.
    pub bf16: bool,
}

impl Planned {
    /// The reference this request's reply must equal.
    pub fn key(&self) -> (Input, bool) {
        (self.input, self.bf16)
    }
}

pub const REGIONS: [&str; 2] = ["conus", "global"];

/// `n` inputs in a seeded order with the spec's mix drawn by stratified
/// sampling: exactly `round(n · raw_share)` raw fields, and region time
/// indices at the skew's quantiles `((j + jitter) / m)^time_skew`. Every
/// seed therefore asks for the same mix and only the order (and with it the
/// cache's hit pattern) changes.
fn mix(spec: &ServeSpec, rng: &mut Rng, n: usize) -> Vec<Input> {
    let raws = (n as f64 * spec.raw_share).round() as usize;
    let m = n - raws;
    let mut inputs: Vec<Input> = (0..raws)
        .map(|_| Input::Raw {
            field: rng.below(spec.raw_pool),
        })
        .collect();
    inputs.extend((0..m).map(|j| {
        let u = (j as f64 + rng.uniform()) / m as f64;
        let time = ((spec.samples as f64 * u.powf(spec.time_skew)) as usize).min(spec.samples - 1);
        Input::Region {
            region: rng.below(REGIONS.len()),
            time,
        }
    }));
    for i in (1..inputs.len()).rev() {
        inputs.swap(i, rng.below(i + 1));
    }
    inputs
}

/// The seeded request schedule: `n_warm` warm-up requests and then `n_open`
/// open-loop requests, each due at a fixed period of `1 / spec.rate_rps`
/// from the start of its phase, then a pool of `n_closed` closed-loop
/// requests. A pure function of its arguments.
pub fn schedule(
    spec: &ServeSpec,
    seed: u64,
    n_open: usize,
    n_closed: usize,
    n_warm: usize,
) -> Schedule {
    let mut rng = Rng::new(seed, 2);
    // Open-loop requests are due at a fixed period. Poisson arrivals moved
    // `serve-region`'s median latency by about ±20% between seeds, jittered
    // slots by about ±13%, a fixed period by about ±7%; the seed still
    // decides which input each request carries.
    let slot_us = 1e6 / spec.rate_rps;
    let due = |i: usize| ((i as f64 + 0.5) * slot_us) as u64;
    let mut id = 0u64;
    let mut phase = |n: usize, due: &dyn Fn(usize) -> u64| -> Vec<Planned> {
        mix(spec, &mut rng, n)
            .into_iter()
            .enumerate()
            .map(|(i, input)| {
                id += 1;
                let bf16 = spec.bf16_every > 0 && id.is_multiple_of(spec.bf16_every);
                Planned {
                    id,
                    conn: i % CONNECTIONS,
                    due_us: due(i),
                    input,
                    bf16,
                }
            })
            .collect()
    };
    let warm = phase(n_warm, &due);
    let open = phase(n_open, &due);
    let closed = phase(n_closed, &|_| 0);
    Schedule { warm, open, closed }
}

/// A run's requests by phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Warm-up requests (open loop at the same rate, not timed).
    pub warm: Vec<Planned>,
    /// Open-loop requests in due order.
    pub open: Vec<Planned>,
    /// Closed-loop requests, cycled through in order per connection.
    pub closed: Vec<Planned>,
}

impl Schedule {
    fn all(&self) -> impl Iterator<Item = &Planned> {
        self.warm.iter().chain(&self.open).chain(&self.closed)
    }

    /// One more than the highest request id: lap `k` of the closed loop
    /// sends request `id` as `id + k * id_stride()`, so ids stay unique.
    pub fn id_stride(&self) -> u64 {
        self.all().map(|p| p.id).max().unwrap_or(0) + 1
    }
}

/// The program's inputs and the references its replies must equal.
pub struct Inputs {
    /// Raw fields by pool index.
    pub fields: Vec<Tensor>,
    /// Request line (no newline) by request id.
    pub lines: BTreeMap<u64, String>,
    /// Reference reply data by input and precision.
    pub refs: BTreeMap<(Input, bool), Arc<Vec<f32>>>,
}

/// Build the server's world as `orbit2-serve`'s `main` does.
pub fn build_world(spec: &ServeSpec, seed: u64) -> (ReslimModel, Normalizer, Vec<Region>) {
    let [conus, global]: [DownscalingDataset; 2] = region_datasets(spec, seed)
        .try_into()
        .ok()
        .expect("two regions");
    let normalizer = Normalizer::fit(&conus, spec.samples.clamp(1, 8));
    let model = ReslimModel::new(spec.model, seed + 2);
    let regions = vec![
        Region {
            name: REGIONS[0].into(),
            dataset: conus,
        },
        Region {
            name: REGIONS[1].into(),
            dataset: global,
        },
    ];
    (model, normalizer, regions)
}

/// The server configuration: `orbit2-serve`'s defaults, fault injection
/// pinned off.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        fault_plan: Some(FaultPlan::none()),
        ..ServerConfig::default()
    }
}

/// The client-side dataset raw fields are drawn from: the regions' grid
/// under another seed, so a raw field has the shape a region input has.
pub fn raw_dataset(spec: &ServeSpec, seed: u64) -> DownscalingDataset {
    let (h, w) = spec.grid;
    DownscalingDataset::new(
        LatLonGrid::conus(h, w),
        VariableSet::daymet_like(),
        FACTOR,
        spec.raw_pool,
        seed ^ 0x5EED_F1E1D,
    )
}

/// A server hosted in this process behind `orbit2_serve::serve`.
pub struct Hosted {
    /// The server.
    pub server: Arc<Server>,
    /// Its loopback address.
    pub addr: SocketAddr,
    listener: TcpListener,
    accept: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Hosted {
    /// `Server::start`, bind, serve, and wait for the first good health
    /// reply.
    pub fn start(model: ReslimModel, normalizer: Normalizer, regions: Vec<Region>) -> Self {
        let server = Arc::new(Server::start(model, normalizer, regions, server_config()));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("bound address");
        let accept_listener = listener.try_clone().expect("clone the listener");
        let s = Arc::clone(&server);
        let accept = std::thread::spawn(move || orbit2_serve::serve(s, accept_listener));
        let mut client = Client::connect(addr).expect("connect to the hosted server");
        let health = client.health().expect("health reply");
        assert!(health.is_ok(), "fresh server reports {health:?}");
        Hosted {
            server,
            addr,
            listener,
            accept,
        }
    }

    /// Stop accepting, wait for every connection to close, and drop the
    /// server. Clients must be closed first.
    pub fn stop(self) {
        sys::shutdown_listener(&self.listener);
        let _ = self.accept.join();
        let deadline = Instant::now() + Duration::from_secs(20);
        while Arc::strong_count(&self.server) > 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        drop(self.server);
    }
}

/// Set the server up `repeats` times, keeping the last; returns the
/// server, a model sharing its weights, the normalizer, and every set-up
/// time in seconds.
pub fn setup_repeated(
    spec: &ServeSpec,
    seed: u64,
    repeats: usize,
) -> (Hosted, ReslimModel, Normalizer, Vec<f64>) {
    let mut times = Vec::with_capacity(repeats);
    for rep in 0..repeats {
        let t0 = Instant::now();
        let (model, normalizer, regions) = build_world(spec, seed);
        let keep = (rep + 1 == repeats).then(|| {
            (
                ReslimModel {
                    cfg: model.cfg,
                    params: model.params.clone(),
                },
                normalizer.clone(),
            )
        });
        let hosted = Hosted::start(model, normalizer, regions);
        times.push(t0.elapsed().as_secs_f64());
        match keep {
            Some((model, normalizer)) => return (hosted, model, normalizer, times),
            None => hosted.stop(),
        }
    }
    unreachable!("the last repeat returns")
}

/// Build request lines and the reference for every distinct input the
/// schedule names: `downscale_with` on a session of the same model at the
/// request's precision (batched ≡ per-request).
pub fn prepare_inputs(
    spec: &ServeSpec,
    seed: u64,
    sched: &Schedule,
    model: &ReslimModel,
    normalizer: &Normalizer,
) -> Inputs {
    let raw_ds = raw_dataset(spec, seed);
    let fields: Vec<Tensor> = (0..spec.raw_pool).map(|i| raw_ds.sample(i).input).collect();
    let regions = region_datasets(spec, seed);
    let lines = sched
        .all()
        .map(|p| {
            let mut req = match p.input {
                Input::Region { region, time } => ServeRequest::region(p.id, REGIONS[region], time),
                Input::Raw { field } => ServeRequest::raw(
                    p.id,
                    fields[field].shape().to_vec(),
                    fields[field].data().to_vec(),
                ),
            };
            if p.bf16 {
                req = req.at_precision(SessionPrecision::Bf16);
            }
            (
                p.id,
                serde_json::to_string(&req).expect("request serializes"),
            )
        })
        .collect();
    let mut keys: Vec<(Input, bool)> = sched.all().map(Planned::key).collect();
    keys.sort();
    keys.dedup();
    let mut refs = BTreeMap::new();
    for bf16 in [false, true] {
        let todo: Vec<Input> = keys.iter().filter(|k| k.1 == bf16).map(|k| k.0).collect();
        if todo.is_empty() {
            continue;
        }
        let precision = if bf16 {
            SessionPrecision::Bf16
        } else {
            SessionPrecision::F32
        };
        let session = model.session_with(precision, SessionActivation::F32);
        let outs: Vec<Vec<f32>> = todo
            .par_iter()
            .map(|input| {
                let x = match *input {
                    Input::Region { region, time } => regions[region].sample(time).input,
                    Input::Raw { field } => fields[field].clone(),
                };
                downscale_with(model, &session, normalizer, &x, None, 1.0)
                    .expect("reference input is valid")
                    .data()
                    .to_vec()
            })
            .collect();
        for (input, out) in todo.into_iter().zip(outs) {
            refs.insert((input, bf16), Arc::new(out));
        }
    }
    Inputs {
        fields,
        lines,
        refs,
    }
}

/// The two region datasets alone (for references and probes).
pub fn region_datasets(spec: &ServeSpec, seed: u64) -> Vec<DownscalingDataset> {
    let variables = VariableSet::daymet_like();
    let (h, w) = spec.grid;
    vec![
        DownscalingDataset::new(
            LatLonGrid::conus(h, w),
            variables.clone(),
            FACTOR,
            spec.samples,
            seed,
        ),
        DownscalingDataset::new(
            LatLonGrid::global(h, w),
            variables,
            FACTOR,
            spec.samples,
            seed + 1,
        ),
    ]
}

/// What one connection saw.
#[derive(Default)]
pub struct ConnLog {
    /// Open loop: due → reply parsed, ms, successful replies.
    pub latency_ms: Vec<f64>,
    /// Open loop: send time − due time, ms.
    pub lag_ms: Vec<f64>,
    /// Open loop: successful replies within the latency limit.
    pub within_limit: usize,
    /// When the last reply of the phase was parsed.
    pub last_reply: Option<Instant>,
    /// Replies that were typed errors or never came; any makes the run
    /// invalid.
    pub failed: usize,
    /// Replies that did not equal their reference.
    pub wrong: Vec<String>,
    /// Requests sent.
    pub attempted: usize,
    /// Closed loop: successful replies equal to their reference, parsed
    /// before the phase ended.
    pub completed_in_phase: usize,
    /// `ServeResponse.micros` of every successful reply, ms.
    pub service_ms: Vec<f64>,
    /// Send → parsed minus `micros`, ms.
    pub overhead_ms: Vec<f64>,
    /// Reply line lengths.
    pub reply_bytes: Vec<usize>,
    /// Backlog (`queue_depth + inflight`) sampled at each open-loop send,
    /// with the sample time in ms since the phase start.
    pub backlog: Vec<(f64, usize)>,
    /// `Server::queue_depth()` sampled at each open-loop send.
    pub queue_depth: Vec<usize>,
    /// A few successful responses, kept for the encode probe.
    pub kept: Vec<ServeResponse>,
    /// Successful replies served from the response cache.
    pub cached: usize,
}

struct Outstanding {
    id: u64,
    key: (Input, bool),
    due: Instant,
    sent: Instant,
    span: Option<u32>,
}

/// One connection's reader/writer pair.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connect to `addr`.
    pub fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect to the hosted server");
        stream.set_nodelay(true).ok();
        // Bounds how long a read waits for the rest of a partly arrived
        // line; waiting for a line to start goes through `wait_readable`.
        stream
            .set_read_timeout(Some(Duration::from_millis(2)))
            .expect("set a read timeout");
        let writer = stream.try_clone().expect("clone the stream");
        Conn {
            reader: BufReader::with_capacity(1 << 20, stream),
            writer,
            buf: Vec::new(),
        }
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    /// Wait up to `timeout` for a whole reply line. `Ok(None)` on timeout;
    /// a partial line stays buffered for the next call.
    fn poll_line(&mut self, timeout: Duration) -> std::io::Result<Option<String>> {
        let buffered_line = self.reader.buffer().contains(&b'\n');
        if !buffered_line && !sys::wait_readable(self.reader.get_ref(), timeout) {
            return Ok(None);
        }
        match self.reader.read_until(b'\n', &mut self.buf) {
            Ok(_) if self.buf.last() == Some(&b'\n') => {
                self.buf.pop();
                let line = String::from_utf8(std::mem::take(&mut self.buf))
                    .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))?;
                Ok(Some(line))
            }
            Ok(_) => Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            // The rest of a long line is still in flight.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// Whether a reply is the answer to request `id` and equals `reference`
/// bit for bit.
pub fn matches_reference(resp: &ServeResponse, id: u64, reference: &[f32]) -> bool {
    resp.id == id
        && resp.data.len() == reference.len()
        && resp
            .data
            .iter()
            .zip(reference)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Longest the load generator waits for a reply before declaring the
/// server stuck.
const STUCK: Duration = Duration::from_secs(60);

/// Shared, read-only context of a drive.
pub struct DriveCtx<'a> {
    pub inputs: &'a Inputs,
    pub server: &'a Server,
    pub tracer: &'a Tracer,
    pub limit_ms: f64,
    /// Flip one bit of the next reply before checking it (to show the
    /// check fails the run); cleared once used.
    pub corrupt_next: AtomicBool,
}

impl DriveCtx<'_> {
    /// Parse and check one reply line against its request. Returns when
    /// it was parsed and whether it was a success equal to its reference.
    fn on_reply(&self, line: String, o: &Outstanding, log: &mut ConnLog) -> (Instant, bool) {
        let decode = self.tracer.span("serve.tcp.response_decode", o.span, o.id);
        let parsed = ServerReply::parse(&line);
        decode.end();
        let parsed_at = Instant::now();
        log.reply_bytes.push(line.len());
        let good = match parsed {
            Ok(ServerReply::Response(mut resp)) => {
                let _verify = self.tracer.span("bench.verify", o.span, o.id);
                if self.corrupt_next.swap(false, Ordering::Relaxed) {
                    if let Some(x) = resp.data.first_mut() {
                        *x = f32::from_bits(x.to_bits() ^ 1);
                    }
                }
                let reference = &self.inputs.refs[&o.key];
                let good = matches_reference(&resp, o.id, reference);
                if !good {
                    log.wrong.push(format!(
                        "request {} ({:?}): reply id {} with {} values differs from the reference",
                        o.id,
                        o.key,
                        resp.id,
                        resp.data.len()
                    ));
                }
                log.cached += usize::from(resp.cached);
                let service = resp.micros as f64 / 1e3;
                log.service_ms.push(service);
                log.overhead_ms
                    .push(parsed_at.duration_since(o.sent).as_secs_f64() * 1e3 - service);
                if log.kept.len() < 8 {
                    resp.data = reference.to_vec();
                    log.kept.push(resp);
                }
                good
            }
            Ok(ServerReply::Error { id, error }) => {
                eprintln!(
                    "request {} failed: {} ({}), reply id {id}",
                    o.id, error.kind, error.message
                );
                log.failed += 1;
                false
            }
            Err(e) => {
                log.wrong
                    .push(format!("request {}: unparseable reply: {e}", o.id));
                false
            }
        };
        (parsed_at, good)
    }
}

/// The open-loop phase on one connection: send each request when due,
/// read replies in between.
pub fn drive_open(
    ctx: &DriveCtx,
    conn: &mut Conn,
    plan: &[&Planned],
    start: Instant,
    log: &mut ConnLog,
) -> std::io::Result<()> {
    let mut outstanding: VecDeque<Outstanding> = VecDeque::new();
    let mut next = 0;
    let mut progress = Instant::now();
    while next < plan.len() || !outstanding.is_empty() {
        let now = Instant::now();
        if let Some(p) = plan.get(next) {
            let due = start + Duration::from_micros(p.due_us);
            if now >= due {
                let depth = ctx.server.queue_depth();
                log.queue_depth.push(depth);
                log.backlog.push((
                    now.duration_since(start).as_secs_f64() * 1e3,
                    depth + ctx.server.inflight(),
                ));
                let root = ctx.tracer.reserve();
                let send = ctx.tracer.span("serve.tcp.send", root, p.id);
                let sent = Instant::now();
                conn.send(&ctx.inputs.lines[&p.id])?;
                send.end();
                log.lag_ms
                    .push(sent.duration_since(due).as_secs_f64() * 1e3);
                log.attempted += 1;
                outstanding.push_back(Outstanding {
                    id: p.id,
                    key: p.key(),
                    due,
                    sent,
                    span: root,
                });
                next += 1;
                progress = Instant::now();
                continue;
            }
        }
        let wait = match plan.get(next) {
            Some(p) => (start + Duration::from_micros(p.due_us)).saturating_duration_since(now),
            None => Duration::from_secs(1),
        };
        match conn.poll_line(wait) {
            Ok(Some(line)) => {
                progress = Instant::now();
                let o = outstanding.pop_front().ok_or_else(|| {
                    std::io::Error::new(ErrorKind::InvalidData, "reply with no request outstanding")
                })?;
                let (parsed_at, good) = ctx.on_reply(line, &o, log);
                log.last_reply = Some(parsed_at);
                ctx.tracer
                    .record_with_id(o.span, "serve.request", o.due, parsed_at, None, o.id);
                if good {
                    let ms = parsed_at.duration_since(o.due).as_secs_f64() * 1e3;
                    log.latency_ms.push(ms);
                    if ms <= ctx.limit_ms {
                        log.within_limit += 1;
                    }
                }
            }
            Ok(None) if progress.elapsed() > STUCK => {
                log.failed += outstanding.len();
                return Err(std::io::Error::new(
                    ErrorKind::TimedOut,
                    "replies stopped coming",
                ));
            }
            Ok(None) => {}
            Err(e) => {
                log.failed += outstanding.len();
                return Err(e);
            }
        }
    }
    Ok(())
}

/// `line`, a serialized [`ServeRequest`] with id `old`, with its id
/// replaced by `new`.
pub fn with_id(line: &str, old: u64, new: u64) -> String {
    let key = format!("\"id\":{old}");
    let at = line
        .match_indices(&key)
        .map(|(i, _)| i)
        .find(|&i| matches!(line.as_bytes().get(i + key.len()), Some(b',' | b'}')))
        .expect("a request line holds its id");
    format!("{}\"id\":{new}{}", &line[..at], &line[at + key.len()..])
}

/// The `n`-th request the closed loop sends from `plan`: the plan's
/// requests in order, over and over, lap `k` under id `id + k * id_stride`.
pub fn nth_closed<'a>(plan: &[&'a Planned], n: usize, id_stride: u64) -> (&'a Planned, u64) {
    let p = plan[n % plan.len()];
    (p, p.id + (n / plan.len()) as u64 * id_stride)
}

/// A closed loop on one connection: keep `window` requests outstanding
/// until `end`, then collect the stragglers. Counts the successful replies
/// parsed before `end`. Requests cycle through `plan` (see
/// [`nth_closed`]), so the plan cannot run out before `end`.
pub fn drive_closed(
    ctx: &DriveCtx,
    conn: &mut Conn,
    plan: &[&Planned],
    window: usize,
    end: Instant,
    id_stride: u64,
    log: &mut ConnLog,
) -> std::io::Result<()> {
    let mut outstanding: VecDeque<Outstanding> = VecDeque::new();
    let mut next = 0;
    let mut progress = Instant::now();
    loop {
        while outstanding.len() < window && !plan.is_empty() && Instant::now() < end {
            let (p, id) = nth_closed(plan, next, id_stride);
            let line = &ctx.inputs.lines[&p.id];
            let line = if id == p.id {
                Cow::Borrowed(line)
            } else {
                Cow::Owned(with_id(line, p.id, id))
            };
            let root = ctx.tracer.reserve();
            let send = ctx.tracer.span("serve.tcp.send", root, id);
            let sent = Instant::now();
            conn.send(&line)?;
            send.end();
            log.attempted += 1;
            outstanding.push_back(Outstanding {
                id,
                key: p.key(),
                due: sent,
                sent,
                span: root,
            });
            next += 1;
        }
        if outstanding.is_empty() {
            return Ok(());
        }
        match conn.poll_line(Duration::from_secs(1)) {
            Ok(Some(line)) => {
                progress = Instant::now();
                let o = outstanding.pop_front().expect("checked nonempty");
                let (parsed_at, good) = ctx.on_reply(line, &o, log);
                ctx.tracer
                    .record_with_id(o.span, "serve.request", o.sent, parsed_at, None, o.id);
                if good && parsed_at <= end {
                    log.completed_in_phase += 1;
                }
            }
            Ok(None) if progress.elapsed() > STUCK => {
                log.failed += outstanding.len();
                return Err(std::io::Error::new(
                    ErrorKind::TimedOut,
                    "replies stopped coming",
                ));
            }
            Ok(None) => {}
            Err(e) => {
                log.failed += outstanding.len();
                return Err(e);
            }
        }
    }
}

/// Run `f` on every connection at once, one thread each.
pub fn on_each_conn<F>(conns: &mut [Conn], logs: &mut [ConnLog], f: F) -> Vec<std::io::Result<()>>
where
    F: Fn(usize, &mut Conn, &mut ConnLog) -> std::io::Result<()> + Sync,
{
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(logs.iter_mut())
            .enumerate()
            .map(|(i, (c, l))| {
                let f = &f;
                s.spawn(move || f(i, c, l))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load-generator thread panicked"))
            .collect()
    })
}

/// Backlog growth check over the open loop: the mean backlog over the last
/// third of the phase against the first third.
pub fn backlog_grew(samples: &[(f64, usize)], phase_ms: f64) -> (f64, f64, bool) {
    let third = phase_ms / 3.0;
    let pick = |lo: f64, hi: f64| {
        let v: Vec<f64> = samples
            .iter()
            .filter(|(t, _)| *t >= lo && *t < hi)
            .map(|&(_, b)| b as f64)
            .collect();
        stats::mean(&v)
    };
    let first = pick(0.0, third);
    let last = pick(2.0 * third, f64::INFINITY);
    (first, last, last > 2.0 * first + 4.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ServeSpec {
        ServeSpec {
            model: ModelConfig::tiny().with_channels(7, 3),
            grid: (64, 128),
            samples: 256,
            raw_share: 0.15,
            raw_pool: 16,
            bf16_every: 4,
            time_skew: 2.0,
            rate_rps: 20.0,
            limit_ms: 250.0,
            window: 4,
        }
    }

    #[test]
    fn the_seed_names_the_schedule() {
        let a = schedule(&spec(), 7, 240, 300, 8);
        assert_eq!(a, schedule(&spec(), 7, 240, 300, 8));
        let b = schedule(&spec(), 8, 240, 300, 8);
        assert_ne!(a.open, b.open);
        assert_eq!((a.warm.len(), a.open.len(), a.closed.len()), (8, 240, 300));
        // Every seed offers the same count at the same period.
        assert_eq!(a.open[0].due_us, 25_000);
        // The warm-up runs at the same period from its own start.
        assert!(a
            .warm
            .iter()
            .zip(&a.open)
            .all(|(w, o)| w.due_us == o.due_us));
        assert!(a
            .open
            .windows(2)
            .all(|w| w[1].due_us - w[0].due_us == 50_000));
        // Ids are unique across phases, connections alternate, and every
        // fourth id asks for bf16.
        let ids: std::collections::BTreeSet<u64> = a
            .warm
            .iter()
            .chain(&a.open)
            .chain(&a.closed)
            .map(|p| p.id)
            .collect();
        assert_eq!(ids.len(), 548);
        assert!(a
            .open
            .iter()
            .enumerate()
            .all(|(i, p)| p.conn == i % CONNECTIONS));
        assert!(a.open.iter().all(|p| p.bf16 == (p.id % 4 == 0)));
    }

    #[test]
    fn the_mix_follows_the_spec() {
        let s = schedule(&spec(), 3, 4000, 0, 0);
        let raw = s
            .open
            .iter()
            .filter(|p| matches!(p.input, Input::Raw { .. }))
            .count();
        let share = raw as f64 / 4000.0;
        assert!((share - 0.15).abs() < 0.03, "raw share {share}");
        // The skew favours early time steps: half the region requests fall
        // in the first quarter of the series.
        let times: Vec<usize> = s
            .open
            .iter()
            .filter_map(|p| match p.input {
                Input::Region { time, .. } => Some(time),
                Input::Raw { .. } => None,
            })
            .collect();
        let early = times.iter().filter(|&&t| t < 64).count() as f64 / times.len() as f64;
        assert!((early - 0.5).abs() < 0.05, "early share {early}");
        assert!(times.iter().all(|&t| t < 256));
    }

    #[test]
    fn closed_loop_laps_repeat_inputs_under_fresh_ids() {
        let s = schedule(&spec(), 5, 4, 6, 2);
        let stride = s.id_stride();
        assert_eq!(stride, 13);
        let plan: Vec<&Planned> = s.closed.iter().collect();
        let sent: Vec<(&Planned, u64)> = (0..20).map(|n| nth_closed(&plan, n, stride)).collect();
        let ids: std::collections::BTreeSet<u64> = sent.iter().map(|&(_, id)| id).collect();
        assert_eq!(ids.len(), 20);
        for (n, &(p, id)) in sent.iter().enumerate() {
            assert_eq!(p, plan[n % plan.len()]);
            if n < plan.len() {
                assert_eq!(id, p.id);
            } else {
                assert!(id >= stride, "lap id {id} collides with a planned id");
            }
        }

        // The id is replaced and nothing else, even where the data holds
        // the same digits.
        let req = ServeRequest::raw(3, vec![1, 1, 2], vec![3.0, -1.0])
            .at_precision(SessionPrecision::Bf16);
        let line = serde_json::to_string(&req).expect("serializes");
        let back: ServeRequest = serde_json::from_str(&with_id(&line, 3, 4711)).expect("parses");
        let mut expect = req.clone();
        expect.id = 4711;
        assert_eq!(back, expect);
    }

    /// A plan shorter than the phase cannot cap the completions: one
    /// planned request on a connection still completes many times over.
    #[test]
    fn a_short_plan_does_not_cap_the_closed_loop() {
        let spec = ServeSpec {
            model: ModelConfig::tiny().with_channels(7, 3),
            grid: (16, 32),
            samples: 8,
            raw_share: 1.0,
            raw_pool: 1,
            bf16_every: 0,
            time_skew: 1.0,
            rate_rps: 1.0,
            limit_ms: 1000.0,
            window: 1,
        };
        let sched = schedule(&spec, 1, 0, 2, 0);
        let (hosted, model, normalizer, _) = setup_repeated(&spec, 1, 1);
        let inputs = prepare_inputs(&spec, 1, &sched, &model, &normalizer);
        let tracer = Tracer::new(false);
        let ctx = DriveCtx {
            inputs: &inputs,
            server: &hosted.server,
            tracer: &tracer,
            limit_ms: spec.limit_ms,
            corrupt_next: AtomicBool::new(false),
        };
        let plan: Vec<&Planned> = sched.closed.iter().filter(|p| p.conn == 0).collect();
        assert_eq!(plan.len(), 1);
        let mut conn = Conn::connect(hosted.addr);
        let mut log = ConnLog::default();
        let end = Instant::now() + Duration::from_millis(600);
        drive_closed(&ctx, &mut conn, &plan, 1, end, sched.id_stride(), &mut log)
            .expect("the connection holds");
        assert!(log.wrong.is_empty(), "{:?}", log.wrong);
        assert_eq!(log.failed, 0);
        assert!(
            log.completed_in_phase >= 3,
            "{} completions from a one-request plan",
            log.completed_in_phase
        );
        drop(conn);
        hosted.stop();
    }

    #[test]
    fn a_flipped_bit_fails_the_reply_check() {
        let reference = vec![1.5f32, -2.25, 300.125];
        let mut resp = ServeResponse {
            id: 9,
            shape: vec![3, 1, 1],
            data: reference.clone(),
            cached: false,
            batch: 1,
            micros: 10,
        };
        assert!(matches_reference(&resp, 9, &reference));
        assert!(!matches_reference(&resp, 8, &reference));
        resp.data[2] = f32::from_bits(resp.data[2].to_bits() ^ 1);
        assert!(!matches_reference(&resp, 9, &reference));
        resp.data.truncate(2);
        assert!(!matches_reference(&resp, 9, &reference[..3]));
    }
}
