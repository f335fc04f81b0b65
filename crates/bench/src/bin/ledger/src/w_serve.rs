//! `serve_mix`: closed-loop clients against a `silc serve` subprocess
//! over real TCP.

use crate::gen_isl::{self, HOT_CYCLES};
use crate::gen_sil::{self, SilDesign};
use crate::json::Json;
use crate::layers;
use crate::proc::ServerProc;
use crate::rng::Rng;
use crate::spans::Recorder;
use crate::workload::{expect_exit, write_file, Ctx, Pace, Replayed, Tally, Workload};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Hot machines and hot designs in the working set.
const HOT: usize = 16;
/// Grid edge of a cold design: small, since cold traffic is there to
/// miss and to press on the cache, not to compute.
const COLD_SIZE: i64 = 2;
/// Of a hundred requests, this many re-simulate a hot machine...
const SIM_SHARE: u64 = 70;
/// ...and this many more recompile a hot design; the rest are cold.
const COMPILE_SHARE: u64 = 20;
/// Requests the traced pass replays in-process.
const REPLAY_REQUESTS: u64 = 2_000;
/// The load is read in windows of this many seconds: long enough to hold
/// several thousand requests in the mix above, short enough that a run
/// has ten of them to pick the least disturbed from.
const WINDOW_S: f64 = 1.0;

/// A request that repeats: everything after the id of the line sent, and
/// everything after `"ok":true,` of the reply a warm server gives.
#[derive(Debug, Clone)]
struct HotItem {
    request_tail: String,
    reply_tail: String,
}

fn request_line(id: u64, tail: &str) -> String {
    format!("{{\"id\":{id},{tail}\n")
}

fn sim_request_tail(source: &str) -> String {
    format!(
        "\"op\":\"sim\",\"source\":{},\"cycles\":{HOT_CYCLES}}}",
        Json::from(source)
    )
}

fn compile_request_tail(source: &str) -> String {
    format!("\"op\":\"compile\",\"source\":{}}}", Json::from(source))
}

/// Splits a reply into its tail after `{"id":<id>,"ok":true,`; `Err`
/// with the reply when it does not start that way.
fn reply_tail(id: u64, reply: &str) -> Result<&str, String> {
    reply
        .strip_prefix(&format!("{{\"id\":{id},\"ok\":true,"))
        .map(|t| t.trim_end())
        .ok_or_else(|| {
            format!(
                "bad reply to request {id}: {}",
                &reply[..reply.len().min(200)]
            )
        })
}

struct Connection {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    reply: String,
}

impl Connection {
    fn open(addr: &str) -> Result<Connection, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(crate::proc::OP_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Connection {
            stream,
            reader,
            reply: String::new(),
        })
    }

    /// Sends one line and waits for its reply: wire to wire.
    fn roundtrip(&mut self, line: &str) -> Result<(&str, f64), String> {
        let start = Instant::now();
        self.stream
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.reply.clear();
        let n = self
            .reader
            .read_line(&mut self.reply)
            .map_err(|e| format!("receive: {e}"))?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        Ok((&self.reply, ms))
    }
}

pub struct ServeMix {
    server: Option<ServerProc>,
    sims: Vec<HotItem>,
    compiles: Vec<HotItem>,
    /// Design count of a cold reply, learnt from the server once (it
    /// counts the standard cells every library starts with).
    cold_cells: u64,
    next_id: AtomicU64,
    clients: usize,
    peak_rss_mb: f64,
}

/// What a cold reply must look like around its CIF.
fn cold_reply_frame(design: &SilDesign, cells: u64) -> (String, &'static str) {
    let [x0, y0, x1, y1] = design.expect.bbox.expect("cold designs are not empty");
    let head = format!(
        "\"op\":\"compile\",\"cells\":{cells},\"flat_elements\":{},\"die\":[{},{}],\"cif\":\"",
        design.expect.total_rects(),
        x1 - x0,
        y1 - y0
    );
    (head, "\",\"cache_hits\":0,\"cache_misses\":4}")
}

impl ServeMix {
    /// Starts a server in `dir`, warms the hot set through it, and keeps
    /// `clients` connections' worth of closed-loop load ready to run. A
    /// single client and its server share one core (`proc::OneCore`).
    pub fn set_up(ctx: &Ctx, dir: &Path, clients: usize) -> Result<ServeMix, String> {
        let server = ServerProc::start(ctx.silc, dir, ctx.nproc, clients == 1)?;
        let mut conn = Connection::open(&server.addr)?;
        let mut rng = Rng::new(ctx.seed, "serve_hot");
        let mut next_id = 0u64;
        // Each hot request goes out twice: the first reply fills the
        // cache and is checked in full, the second is the warm reply every
        // later one must repeat.
        let mut warm =
            |conn: &mut Connection, tail: String, verify: &dyn Fn(&Json) -> Result<(), String>| {
                let mut reply_tails = Vec::new();
                for _ in 0..2 {
                    next_id += 1;
                    let (reply, _) = conn.roundtrip(&request_line(next_id, &tail))?;
                    reply_tails.push(reply_tail(next_id, reply)?.to_string());
                    verify(&Json::parse(reply)?)?;
                }
                Ok::<_, String>(HotItem {
                    request_tail: tail,
                    reply_tail: reply_tails.pop().expect("two replies"),
                })
            };

        let mut sims = Vec::new();
        for _ in 0..HOT {
            let machine = gen_isl::hot_machine(rng.next_u64() % 100_000);
            let item = warm(&mut conn, sim_request_tail(&machine.source), &|reply| {
                let regs = reply.get("regs").ok_or("sim reply without regs")?;
                for (name, value) in &machine.regs {
                    if regs.get(name).and_then(Json::as_f64) != Some(*value as f64) {
                        return Err(format!("{}: `{name}` is not {value}", machine.name));
                    }
                }
                Ok(())
            })?;
            sims.push(item);
        }

        let mut compiles = Vec::new();
        let designs = gen_sil::array_corpus(ctx.seed, &[512, 1024, 2048, 4096]);
        debug_assert_eq!(designs.len(), HOT);
        for design in designs {
            // The payload must be what the CLI prints for the same source.
            write_file(dir, "hot.sil", &design.source)?;
            let cli = ctx.silc(dir, &["compile", "hot.sil", "--no-cache"])?;
            expect_exit(&cli, 0)?;
            let item = warm(&mut conn, compile_request_tail(&design.source), &|reply| {
                if reply.get("cif").and_then(Json::as_str) == Some(cli.stdout.as_str()) {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: served CIF differs from the CLI's",
                        design.name
                    ))
                }
            })?;
            compiles.push(item);
        }

        // One cold request tells how many cells the server counts.
        next_id += 1;
        let cold = gen_sil::cold_design(next_id, COLD_SIZE);
        let (reply, _) =
            conn.roundtrip(&request_line(next_id, &compile_request_tail(&cold.source)))?;
        let parsed = Json::parse(reply)?;
        let cold_cells = parsed
            .get("cells")
            .and_then(Json::as_f64)
            .ok_or("cold reply without cells")? as u64;
        let got = layers::cif_geometry(
            parsed
                .get("cif")
                .and_then(Json::as_str)
                .ok_or("cold reply without cif")?,
        )?;
        if got != cold.expect {
            return Err("cold design came back with other geometry".into());
        }
        Ok(ServeMix {
            server: Some(server),
            sims,
            compiles,
            cold_cells,
            next_id: AtomicU64::new(next_id),
            clients,
            peak_rss_mb: 0.0,
        })
    }

    fn addr(&self) -> Result<&str, String> {
        self.server
            .as_ref()
            .map(|s| s.addr.as_str())
            .ok_or("server already stopped".to_string())
    }

    /// The next request of a client's schedule and the check its reply
    /// must pass. Hot picks cycle, as an editor returns to each open
    /// design in turn; request ids, and with them cold designs, are
    /// never reused.
    fn next_request(&self, rng: &mut Rng, cursor: &mut usize) -> (u64, String, Expected<'_>) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let draw = rng.next_u64() % 100;
        *cursor += 1;
        if draw < SIM_SHARE {
            let item = &self.sims[*cursor % HOT];
            (
                id,
                request_line(id, &item.request_tail),
                Expected::Tail(&item.reply_tail),
            )
        } else if draw < SIM_SHARE + COMPILE_SHARE {
            let item = &self.compiles[*cursor % HOT];
            (
                id,
                request_line(id, &item.request_tail),
                Expected::Tail(&item.reply_tail),
            )
        } else {
            let design = gen_sil::cold_design(id, COLD_SIZE);
            let (head, foot) = cold_reply_frame(&design, self.cold_cells);
            (
                id,
                request_line(id, &compile_request_tail(&design.source)),
                Expected::Frame(head, foot),
            )
        }
    }

    /// One client: requests back to back until `deadline`. Returns its
    /// tally and, per request, the window of the load it completed in.
    fn client(
        &self,
        client: usize,
        seed: u64,
        start: Instant,
        deadline: Instant,
    ) -> Result<(Tally, Vec<usize>), String> {
        let _held = (self.clients == 1).then(crate::proc::OneCore::hold);
        let mut conn = Connection::open(self.addr()?)?;
        let mut rng = Rng::new(seed, &format!("serve_client_{client}"));
        let mut cursor = client * HOT / self.clients;
        let mut tally = Tally::new(1);
        let mut windows = Vec::new();
        while Instant::now() < deadline {
            let (id, line, expected) = self.next_request(&mut rng, &mut cursor);
            let (reply, ms) = conn.roundtrip(&line)?;
            let outcome = reply_tail(id, reply).and_then(|tail| expected.check(tail));
            tally.op(0, ms, outcome);
            windows.push((start.elapsed().as_secs_f64() / WINDOW_S) as usize);
        }
        Ok((tally, windows))
    }

    /// The server's own counters, from its `stats` op.
    pub fn stats(&self) -> Result<Json, String> {
        let mut conn = Connection::open(self.addr()?)?;
        let (reply, _) = conn.roundtrip("{\"op\":\"stats\"}\n")?;
        Json::parse(reply)
    }
}

enum Expected<'a> {
    /// The whole reply after the envelope.
    Tail(&'a str),
    /// What comes before and after the CIF.
    Frame(String, &'static str),
}

impl Expected<'_> {
    fn check(&self, tail: &str) -> Result<(), String> {
        let ok = match self {
            Expected::Tail(want) => tail == *want,
            Expected::Frame(head, foot) => tail.starts_with(head.as_str()) && tail.ends_with(foot),
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "unexpected payload: {}",
                &tail[..tail.len().min(160)]
            ))
        }
    }
}

impl Workload for ServeMix {
    fn items(&self) -> usize {
        1
    }

    fn run(&mut self, ctx: &Ctx, seconds: f64, tally: &mut Tally) -> Result<Pace, String> {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let this = &*self;
        let results: Vec<Result<(Tally, Vec<usize>), String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..this.clients)
                .map(|c| scope.spawn(move || this.client(c, ctx.seed, start, deadline)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
                .collect()
        });
        // Whole windows only, unless the run is shorter than one.
        let whole = ((seconds / WINDOW_S) as usize).max(1);
        let mut by_window = vec![Vec::new(); whole];
        for client in results {
            let (client, windows) = client?;
            for (&ms, window) in client.samples[0].iter().zip(windows) {
                if let Some(samples) = by_window.get_mut(window) {
                    samples.push(ms);
                }
            }
            tally.samples[0].extend(&client.samples[0]);
            tally.attempted += client.attempted;
            tally.failed += client.failed;
        }
        // The median request and the request rate of the window the
        // machine disturbed least: each is its best over the windows.
        let length_s = WINDOW_S.min(seconds);
        let mut busy = by_window.iter().filter(|s| !s.is_empty()).peekable();
        if busy.peek().is_none() {
            // The untimed pass of set-up: no time, no requests.
            return Ok(Pace::default());
        }
        let mut pace = Pace {
            op_best_ms: f64::INFINITY,
            ops_per_s: 0.0,
        };
        for samples in busy {
            pace.op_best_ms = pace.op_best_ms.min(crate::stats::median(samples));
            pace.ops_per_s = pace.ops_per_s.max(samples.len() as f64 / length_s);
        }
        Ok(pace)
    }

    fn check(&mut self, _ctx: &Ctx, tally: &mut Tally) -> Result<(), String> {
        let stats = self.stats()?;
        for counter in ["timeouts", "rejected", "bad_requests"] {
            let outcome = match stats.get(counter).and_then(Json::as_f64) {
                Some(0.0) => Ok(()),
                other => Err(format!("server counted {other:?}")),
            };
            tally.check(&format!("no {counter}"), outcome);
        }
        if let Some(server) = &self.server {
            self.peak_rss_mb = crate::proc::peak_rss_mb_of(server.pid()).unwrap_or(0.0);
        }
        Ok(())
    }

    fn replay(&mut self, ctx: &Ctx, rec: &mut Recorder) -> Result<Replayed, String> {
        // One engine for all requests, warmed with the hot set off the
        // record, as the server's is.
        let engine = layers::engine_in_memory();
        let mut warmup = Recorder::new();
        for item in self.sims.iter().chain(&self.compiles) {
            layers::serve_request(&mut warmup, &engine, &request_line(0, &item.request_tail))?;
        }
        let mut rng = Rng::new(ctx.seed, "serve_replay");
        let mut cursor = 0;
        for _ in 0..REPLAY_REQUESTS {
            let (id, line, expected) = self.next_request(&mut rng, &mut cursor);
            rec.next_op();
            let reply = layers::serve_request(rec, &engine, line.trim_end())?;
            // The replay builds a shorter reply than the server; hot
            // replies must still be hits.
            if matches!(expected, Expected::Tail(_)) && !reply.ends_with("\"cache_misses\":0}") {
                return Err(format!("replayed request {id} missed the warm cache"));
            }
        }
        Ok(Replayed {
            ops: REPLAY_REQUESTS,
            focus: None,
        })
    }

    fn peak_rss_mb(&self) -> f64 {
        self.peak_rss_mb
    }

    fn finish(mut self: Box<Self>) -> Result<(), String> {
        let Some(server) = self.server.take() else {
            return Ok(());
        };
        let mut conn = Connection::open(&server.addr)?;
        conn.roundtrip("{\"op\":\"shutdown\"}\n")?;
        drop(conn);
        if server.wait_for_exit() {
            Ok(())
        } else {
            Err("`silc serve` did not exit cleanly after shutdown".into())
        }
    }
}

/// What the layer probes measure on the wire: round trips of each kind
/// on one connection with nothing else in flight.
pub struct WireProbe {
    pub stats_ms: Vec<f64>,
    pub hit_sim_ms: Vec<f64>,
    pub hit_compile_ms: Vec<f64>,
    pub cold_ms: Vec<f64>,
    pub response_bytes: Vec<f64>,
    /// A request line and a reply size for the codec probes.
    pub sample_line: String,
    pub sample_reply_bytes: usize,
}

impl ServeMix {
    pub fn wire_probe(&self, rounds: usize) -> Result<WireProbe, String> {
        let mut conn = Connection::open(self.addr()?)?;
        let mut probe = WireProbe {
            stats_ms: Vec::new(),
            hit_sim_ms: Vec::new(),
            hit_compile_ms: Vec::new(),
            cold_ms: Vec::new(),
            response_bytes: Vec::new(),
            sample_line: request_line(0, &self.compiles[0].request_tail),
            sample_reply_bytes: self.compiles[0].reply_tail.len(),
        };
        for round in 0..rounds {
            let (_, ms) = conn.roundtrip("{\"op\":\"stats\"}\n")?;
            probe.stats_ms.push(ms);
            let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
            for (item, out) in [
                (&self.sims[round % HOT], &mut probe.hit_sim_ms),
                (&self.compiles[round % HOT], &mut probe.hit_compile_ms),
            ] {
                let (reply, ms) = conn.roundtrip(&request_line(id, &item.request_tail))?;
                if reply_tail(id, reply)? != item.reply_tail {
                    return Err("probe got a different reply than the warm one".into());
                }
                out.push(ms);
                probe.response_bytes.push(reply.len() as f64);
            }
            let cold = gen_sil::cold_design(id, COLD_SIZE);
            let (reply, ms) =
                conn.roundtrip(&request_line(id, &compile_request_tail(&cold.source)))?;
            reply_tail(id, reply)?;
            probe.cold_ms.push(ms);
            probe.response_bytes.push(reply.len() as f64);
        }
        Ok(probe)
    }
}
