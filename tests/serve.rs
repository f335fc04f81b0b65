//! End-to-end tests of the `silc serve` protocol: concurrency, the
//! failure envelope (timeout / overloaded / bad request), graceful
//! SIGINT shutdown of the real binary, and byte-identical equivalence
//! with the `silc compile` CLI.

use proptest::prelude::*;
use silc::serve::json::{parse as parse_json, Json};
use silc::serve::{Server, ServerConfig, MAX_REQUEST_BYTES};
use silc::trace::Tracer;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn silc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_silc"))
}

fn start(config: ServerConfig) -> (SocketAddr, silc::serve::ShutdownHandle) {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.shutdown_handle();
    std::thread::spawn(move || server.run().expect("serve"));
    (addr, handle)
}

/// A persistent client connection issuing one request per call.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("client read timeout");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn request(&mut self, line: &str) -> Json {
        let mut payload = line.to_string();
        payload.push('\n');
        self.writer.write_all(payload.as_bytes()).expect("send");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("reply");
        parse_json(response.trim()).expect("well-formed reply")
    }
}

/// JSON-escapes `source` for embedding in a request line.
fn quoted(source: &str) -> String {
    Json::Str(source.to_string()).to_string()
}

fn sil_program(width: i64) -> String {
    format!(
        "cell unit() {{
            box metal (0, 0) ({width}, 12);
            box poly (-2, 3) ({p}, 5);
         }}
         place unit() at (0, 0);",
        p = width + 2,
    )
}

/// Writes `source` to a scratch `.sil` file named after `tag`.
fn design_file(source: &str, tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("silc-serve-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{tag}.sil"));
    std::fs::write(&path, source).expect("write design");
    path
}

/// Runs `silc compile <file> --no-drc` and returns its exact stdout.
fn cli_compile_stdout(source: &str, tag: &str) -> Vec<u8> {
    let out = silc()
        .arg("compile")
        .arg(design_file(source, tag))
        .arg("--no-drc")
        .output()
        .expect("CLI runs");
    assert!(out.status.success(), "CLI compile failed: {out:?}");
    out.stdout
}

/// A DRC-clean design whose extraction yields real transistors.
const PNR_SIL: &str = "cell inv() { \
     box diff (0, 0) (4, 30); \
     box poly (-4, 8) (8, 10); \
     box poly (-4, 20) (8, 22); \
     box implant (-2, 18) (6, 24); \
     box contact (1, 14) (3, 16); \
     box metal (0, 13) (12, 17); } \
     cell column(n) { array inv() at (0, 0) step (0, 0) (0, 36) count 1 n; } \
     place column(2) at (0, 0);";

/// Runs `silc pnr <file>` and a one-job `silc batch` with `-o`, and
/// returns the CLI's exact stdout and the batch job's output file.
fn cli_and_batch_pnr(source: &str, tag: &str) -> (Vec<u8>, Vec<u8>) {
    let path = design_file(source, tag);
    let out = silc().arg("pnr").arg(&path).output().expect("CLI runs");
    assert!(out.status.success(), "CLI pnr failed: {out:?}");
    let manifest = path.with_extension("jobs");
    let routed = path.with_extension("cif");
    let line = format!("pnr {} -o {}\n", path.display(), routed.display());
    std::fs::write(&manifest, line).expect("write manifest");
    let batch = silc().arg("batch").arg(&manifest).output().expect("runs");
    assert!(batch.status.success(), "batch pnr failed: {batch:?}");
    (out.stdout, std::fs::read(&routed).expect("batch wrote -o"))
}

#[test]
fn eight_concurrent_clients_match_the_cli_byte_for_byte() {
    let tracer = Tracer::enabled();
    let (addr, handle) = start(ServerConfig {
        jobs: 4,
        queue_capacity: 16,
        tracer: tracer.clone(),
        ..ServerConfig::default()
    });
    let isl = "machine m { reg n[8]; state s { n := n + 1; if n == 5 { halt; } } }";
    std::thread::scope(|scope| {
        for client_id in 0..9i64 {
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                if client_id == 8 {
                    // The pnr client: the routed CIF is the same bytes
                    // served, printed by `silc pnr` and written by a
                    // batch job's `-o`.
                    let reply = client.request(&format!(
                        r#"{{"op":"pnr","id":{client_id},"source":{}}}"#,
                        quoted(PNR_SIL)
                    ));
                    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
                    let served = reply.get("cif").and_then(Json::as_str).expect("cif");
                    let (cli, batch) = cli_and_batch_pnr(PNR_SIL, "client8");
                    assert_eq!(served.as_bytes(), &cli[..], "served pnr != `silc pnr`");
                    assert_eq!(served.as_bytes(), &batch[..], "served pnr != batch -o");
                } else if client_id % 2 == 0 {
                    // Compile clients: each a distinct design, each
                    // checked against the real CLI's stdout bytes.
                    let source = sil_program(6 + client_id);
                    let reply = client.request(&format!(
                        r#"{{"op":"compile","id":{client_id},"no_drc":true,"source":{}}}"#,
                        quoted(&source)
                    ));
                    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
                    assert_eq!(reply.get("id"), Some(&Json::Int(client_id as i128)));
                    let served = reply.get("cif").and_then(Json::as_str).expect("cif");
                    let cli = cli_compile_stdout(&source, &format!("client{client_id}"));
                    assert_eq!(
                        served.as_bytes(),
                        &cli[..],
                        "served CIF diverged from the CLI for client {client_id}"
                    );
                } else {
                    let reply = client.request(&format!(
                        r#"{{"op":"sim","id":{client_id},"source":{}}}"#,
                        quoted(isl)
                    ));
                    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
                    assert_eq!(reply.get("halted"), Some(&Json::Bool(true)));
                    assert_eq!(reply.get("engine"), None, "one simulator, no tag");
                    assert_eq!(
                        reply.get("regs").and_then(|r| r.get("n")),
                        Some(&Json::Int(6))
                    );
                }
            });
        }
    });
    // All 9 clients shared one engine: the stats op sees their traffic
    // (the counter includes the stats request itself: 9 + 1).
    let stats = Client::connect(addr).request(r#"{"op":"stats"}"#);
    assert_eq!(stats.get("requests"), Some(&Json::Int(10)));
    assert_eq!(stats.get("timeouts"), Some(&Json::Int(0)));
    assert_eq!(stats.get("rejected"), Some(&Json::Int(0)));
    handle.shutdown();
    // A served sim parses its ISL under the same span the CLI and batch
    // front-ends record.
    let spans = tracer.finish();
    assert!(spans.spans().iter().any(|s| s.name == "isl.parse"));
}

#[test]
fn verify_op_answers_verdicts_and_reuses_the_cache() {
    let (addr, handle) = start(ServerConfig::default());
    let mut client = Client::connect(addr);
    let table = ".i 2\n.o 1\n.ilb a b\n.ob y\n10 1\n01 1\n";

    // A table verifies against its own minimized realization.
    let reply = client.request(&format!(
        r#"{{"op":"verify","lang":"pla","source":{}}}"#,
        quoted(table)
    ));
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
    assert_eq!(reply.get("equivalent"), Some(&Json::Bool(true)));
    assert_eq!(reply.get("check").and_then(Json::as_str), Some("pla"));

    // A mutated implementation against the golden table is refuted —
    // still an ok response; the verdict is data, not an error.
    let mutated = table.replace("01 1", "01 0");
    let reply = client.request(&format!(
        r#"{{"op":"verify","lang":"pla","source":{},"against":{}}}"#,
        quoted(&mutated),
        quoted(table)
    ));
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
    assert_eq!(reply.get("equivalent"), Some(&Json::Bool(false)));
    let mismatches = reply.get("mismatches").expect("mismatches");
    assert!(
        mismatches.to_string().contains('y'),
        "counterexample names the output: {mismatches}"
    );

    // Repeating the first request is a pure Stage::VERIFY cache hit.
    let reply = client.request(&format!(
        r#"{{"op":"verify","lang":"pla","source":{}}}"#,
        quoted(table)
    ));
    assert_eq!(reply.get("equivalent"), Some(&Json::Bool(true)));
    assert_eq!(reply.get("cache_misses"), Some(&Json::Int(0)));
    assert_eq!(reply.get("cache_hits"), Some(&Json::Int(1)));
    handle.shutdown();
}

#[test]
fn out_of_range_geometry_is_an_error_reply_and_the_worker_lives_on() {
    // One worker: if the request killed it (it used to abort the whole
    // process on an impossible allocation) nothing would answer the next.
    let (addr, handle) = start(ServerConfig {
        jobs: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr);
    let huge = "cell a() {
           box metal (0,0) (9000000000000000000,4);
           box metal (-9000000000000000000,10) (0,14);
           box contact (9223372036854775800,0) (9223372036854775806,4);
         }
         cell b(n) { array a() at (0,0) step (10,0) count n; }
         place b(20) at (0,0);";
    let reply = client.request(&format!(
        r#"{{"op":"compile","id":1,"source":{}}}"#,
        quoted(huge)
    ));
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{reply:?}");
    let message = reply.to_string();
    assert!(
        message.contains("line 2") && message.contains("2^40"),
        "{message}"
    );
    let reply = client.request(&format!(
        r#"{{"op":"compile","id":2,"source":{}}}"#,
        quoted(&sil_program(7))
    ));
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
    handle.shutdown();
}

#[test]
fn nesting_bombs_are_error_replies_and_the_server_lives_on() {
    // A stack overflow is no panic to catch: one such request used to
    // abort the process, and every connection with it.
    let (addr, handle) = start(ServerConfig {
        jobs: 1,
        ..ServerConfig::default()
    });
    let parens = format!("let x = {}1{};", "(".repeat(20_000), ")".repeat(20_000));
    let reply = Client::connect(addr).request(&format!(
        r#"{{"op":"compile","source":{}}}"#,
        quoted(&parens)
    ));
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{reply:?}");
    assert!(reply.to_string().contains("levels deep"), "{reply:?}");
    let arrays = format!(
        r#"{{"op":"stats","id":{}1{}}}"#,
        "[".repeat(200_000),
        "]".repeat(200_000)
    );
    let reply = Client::connect(addr).request(&arrays);
    assert_eq!(
        reply.get("error").and_then(Json::as_str),
        Some("bad_request"),
        "{reply:?}"
    );
    // The run-time shape: every call of `f` evaluates 28 nested operands
    // again, 59 frames a call, which overflowed inside the old bound of
    // 256 calls.
    let recursion = format!(
        "fn f(n) {{\n if n > 250 {{ return 0; }}\n return {}f(n + 1){};\n}}\nlet x = f(0);",
        "-(0 + ".repeat(28),
        ")".repeat(28)
    );
    let reply = Client::connect(addr).request(&format!(
        r#"{{"op":"compile","source":{}}}"#,
        quoted(&recursion)
    ));
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{reply:?}");
    let message = reply.to_string();
    assert!(
        message.contains("line 3") && message.contains("function recursion too deep"),
        "{message}"
    );
    // A chain of cells each placing the next: 75 KB, under the line cap,
    // and it recursed with no budget at all.
    let chain = |n: usize| {
        let cells = (1..n).map(|i| format!("cell c{i}() {{ place c{}() at (0,0); }}\n", i - 1));
        format!(
            "cell c0() {{ box metal (0,0) (4,4); }}\n{}place c{}() at (0,0);",
            cells.collect::<String>(),
            n - 1
        )
    };
    let reply = Client::connect(addr).request(&format!(
        r#"{{"op":"compile","source":{}}}"#,
        quoted(&chain(1_500))
    ));
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{reply:?}");
    let message = reply.to_string();
    assert!(
        message.contains("on line ") && message.contains("cell nesting too deep"),
        "{message}"
    );
    // What the bound admits runs on a worker's 2 MiB stack, here in a
    // debug build: nested blocks and nested cells in SIL, nested operands
    // in ISL.
    let mut client = Client::connect(addr);
    let blocks = format!(
        "let c = true; {}box metal (0,0) (4,4);{}",
        "if c { ".repeat(60),
        "}".repeat(60)
    );
    let operands = format!(
        "machine m {{ reg r[8]; state s {{ r := {}1{}; halt; }} }}",
        "1+(".repeat(55),
        ")".repeat(55)
    );
    let cells = chain(if cfg!(debug_assertions) { 16 } else { 200 });
    for (op, source) in [("compile", blocks), ("compile", cells), ("sim", operands)] {
        let reply = client.request(&format!(r#"{{"op":"{op}","source":{}}}"#, quoted(&source)));
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
    }
    handle.shutdown();
}

#[test]
fn oversized_request_line_is_refused_and_the_server_lives_on() {
    let (addr, handle) = start(ServerConfig {
        jobs: 1,
        ..ServerConfig::default()
    });
    // One byte past the cap and still no newline: the server must answer
    // and hang up rather than keep buffering.
    let mut hog = Client::connect(addr);
    let flood = vec![b'x'; MAX_REQUEST_BYTES + 1];
    hog.writer.write_all(&flood).expect("send");
    let mut response = String::new();
    hog.reader.read_line(&mut response).expect("reply");
    let reply = parse_json(response.trim()).expect("well-formed reply");
    assert_eq!(
        reply.get("error").and_then(Json::as_str),
        Some("bad_request"),
        "{reply:?}"
    );
    let detail = reply.get("detail").and_then(Json::as_str).expect("detail");
    assert!(detail.contains(&MAX_REQUEST_BYTES.to_string()), "{detail}");
    response.clear();
    let n = hog
        .reader
        .read_line(&mut response)
        .expect("EOF, not a hang");
    assert_eq!(n, 0, "connection closed after the refusal: {response:?}");
    // A line of exactly the cap is still a request (here: not JSON), and
    // other connections never noticed.
    let mut edge = Client::connect(addr);
    let mut line = vec![b'x'; MAX_REQUEST_BYTES - 1];
    line.push(b'\n');
    edge.writer.write_all(&line).expect("send");
    response.clear();
    edge.reader.read_line(&mut response).expect("reply");
    assert!(response.contains("bad_request"), "{response}");
    let reply = edge.request(&format!(
        r#"{{"op":"compile","source":{}}}"#,
        quoted(&sil_program(7))
    ));
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
    let stats = edge.request(r#"{"op":"stats"}"#);
    assert_eq!(stats.get("bad_requests"), Some(&Json::Int(2)));
    handle.shutdown();
}

#[test]
fn slow_loris_is_answered_when_it_finishes_and_reaped_when_it_never_does() {
    let (addr, handle) = start(ServerConfig {
        jobs: 1,
        idle_timeout_ms: 400,
        ..ServerConfig::default()
    });
    // A whole request, one byte at a time, is still one request — also
    // when a pause longer than the server's read tick falls inside the
    // two-byte `é`.
    let mut slow = Client::connect(addr);
    slow.writer.set_nodelay(true).expect("nodelay");
    let line = format!(
        "{{\"op\":\"compile\",\"id\":\"é\",\"source\":{}}}\n",
        quoted(&sil_program(7))
    );
    for byte in line.as_bytes() {
        slow.writer.write_all(&[*byte]).expect("send a byte");
        if *byte == "é".as_bytes()[0] {
            std::thread::sleep(Duration::from_millis(250));
        }
    }
    let mut response = String::new();
    slow.reader.read_line(&mut response).expect("reply");
    let reply = parse_json(response.trim()).expect("well-formed reply");
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
    assert_eq!(reply.get("id").and_then(Json::as_str), Some("é"));

    // A line that never ends, dribbled faster than the server's read
    // tick: the connection is closed at the idle timeout ...
    let dribble = std::thread::spawn(move || {
        let mut client = Client::connect(addr);
        let begin = Instant::now();
        while client.writer.write_all(b"x").is_ok() {
            assert!(
                begin.elapsed() < Duration::from_secs(10),
                "still connected long after the 400ms idle timeout"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    });
    // ... and meanwhile holds no worker: the only one answers others.
    let reply = Client::connect(addr).request(&format!(
        r#"{{"op":"compile","source":{}}}"#,
        quoted(&sil_program(8))
    ));
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
    dribble.join().expect("the dribbling client was hung up on");
    handle.shutdown();
}

#[test]
fn half_closed_client_still_gets_its_reply() {
    let (addr, handle) = start(ServerConfig {
        jobs: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr);
    let line = format!(
        "{{\"op\":\"compile\",\"source\":{}}}\n",
        quoted(&sil_program(7))
    );
    client.writer.write_all(line.as_bytes()).expect("send");
    client
        .writer
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut response = String::new();
    client.reader.read_line(&mut response).expect("reply");
    let reply = parse_json(response.trim()).expect("well-formed reply");
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
    // The connection thread saw the end of input and let go.
    response.clear();
    let n = client.reader.read_line(&mut response).expect("EOF");
    assert_eq!(n, 0, "nothing follows the one reply: {response:?}");
    handle.shutdown();
}

#[test]
fn job_that_expires_in_the_queue_is_skipped_not_run() {
    let (addr, handle) = start(ServerConfig {
        jobs: 1,
        enable_test_ops: true,
        ..ServerConfig::default()
    });
    let mut stats_client = Client::connect(addr);
    let mut busy = Client::connect(addr);
    busy.writer
        .write_all(b"{\"op\":\"sleep\",\"ms\":600}\n")
        .expect("send");
    wait_for(&mut stats_client, "busy_workers", 1);
    // Queued behind the sleep with a deadline that passes while it waits.
    let isl = "machine m { reg n[8]; state s { n := n + 1; } }";
    let expired = Client::connect(addr).request(&format!(
        r#"{{"op":"sim","deadline_ms":100,"source":{}}}"#,
        quoted(isl)
    ));
    assert_eq!(
        expired.get("error").and_then(Json::as_str),
        Some("timeout"),
        "{expired:?}"
    );
    // The worker meets the expired job first and must not spend itself
    // on it: the next request is answered as soon as the sleep ends ...
    let begin = Instant::now();
    let reply = Client::connect(addr).request(&format!(
        r#"{{"op":"compile","source":{}}}"#,
        quoted(&sil_program(7))
    ));
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
    assert!(
        begin.elapsed() < Duration::from_secs(3),
        "{:?}",
        begin.elapsed()
    );
    // ... and no simulation ever ran: the same machine is still a miss.
    let stats = stats_client.request(r#"{"op":"stats"}"#);
    assert_eq!(stats.get("timeouts"), Some(&Json::Int(1)), "{stats:?}");
    assert_eq!(stats.get("queue_depth"), Some(&Json::Int(0)), "{stats:?}");
    let sim = Client::connect(addr).request(&format!(r#"{{"op":"sim","source":{}}}"#, quoted(isl)));
    assert_eq!(sim.get("cache_hits"), Some(&Json::Int(0)), "{sim:?}");
    assert_eq!(sim.get("cache_misses"), Some(&Json::Int(1)), "{sim:?}");
    handle.shutdown();
}

#[test]
fn slow_request_times_out_without_stalling_other_clients() {
    let (addr, handle) = start(ServerConfig {
        jobs: 2,
        queue_capacity: 4,
        enable_test_ops: true,
        ..ServerConfig::default()
    });
    let slow = std::thread::spawn(move || {
        let mut client = Client::connect(addr);
        let begin = Instant::now();
        let reply = client.request(r#"{"op":"sleep","ms":5000,"deadline_ms":150,"id":"slow"}"#);
        let waited = begin.elapsed();
        assert_eq!(
            reply.get("error").and_then(Json::as_str),
            Some("timeout"),
            "{reply:?}"
        );
        assert_eq!(reply.get("id").and_then(Json::as_str), Some("slow"));
        assert!(
            waited < Duration::from_secs(3),
            "timeout reply took {waited:?}, deadline was 150ms"
        );
        // The connection survives its own timeout.
        let again = client.request(r#"{"op":"stats"}"#);
        assert_eq!(again.get("ok"), Some(&Json::Bool(true)));
    });
    // While the slow job occupies one worker, a fast client on the
    // other worker is answered normally.
    let mut fast = Client::connect(addr);
    let reply = fast.request(&format!(
        r#"{{"op":"compile","no_drc":true,"source":{}}}"#,
        quoted(&sil_program(9))
    ));
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
    slow.join().expect("slow client");
    let stats = Client::connect(addr).request(r#"{"op":"stats"}"#);
    assert_eq!(stats.get("timeouts"), Some(&Json::Int(1)));
    handle.shutdown();
}

#[test]
fn full_queue_answers_overloaded_immediately() {
    let (addr, handle) = start(ServerConfig {
        jobs: 1,
        queue_capacity: 1,
        enable_test_ops: true,
        ..ServerConfig::default()
    });
    let mut stats_client = Client::connect(addr);
    // Occupy the only worker, then fill the one queue slot. Stats are
    // answered inline (never queued), so polling them cannot deadlock.
    let mut busy = Client::connect(addr);
    busy.writer
        .write_all(b"{\"op\":\"sleep\",\"ms\":4000,\"id\":\"busy\"}\n")
        .expect("send");
    wait_for(&mut stats_client, "busy_workers", 1);
    let mut queued = Client::connect(addr);
    queued
        .writer
        .write_all(b"{\"op\":\"sleep\",\"ms\":4000,\"id\":\"queued\"}\n")
        .expect("send");
    wait_for(&mut stats_client, "queue_depth", 1);

    // Worker busy + queue full: the next compute op must be rejected
    // with `overloaded`, and fast (no deadline wait).
    let begin = Instant::now();
    let reply = Client::connect(addr).request(r#"{"op":"sleep","ms":1,"id":"rejected"}"#);
    assert_eq!(
        reply.get("error").and_then(Json::as_str),
        Some("overloaded"),
        "{reply:?}"
    );
    assert!(
        begin.elapsed() < Duration::from_secs(2),
        "overloaded reply should not wait for the queue"
    );
    let stats = stats_client.request(r#"{"op":"stats"}"#);
    assert_eq!(stats.get("rejected"), Some(&Json::Int(1)));
    // Shutdown drains: the in-flight and queued sleeps finish early
    // (they poll the stop flag) rather than holding the server hostage.
    handle.shutdown();
}

#[test]
fn batch_flood_does_not_starve_interactive_requests() {
    let (addr, handle) = start(ServerConfig {
        jobs: 1,
        queue_capacity: 16,
        enable_test_ops: true,
        ..ServerConfig::default()
    });
    let mut stats_client = Client::connect(addr);
    // Six batch clients pile 3s of sleep onto the single worker without
    // waiting for replies. Kept alive so their jobs stay deliverable.
    let mut flood = Vec::new();
    for i in 0..6 {
        let mut client = Client::connect(addr);
        client
            .writer
            .write_all(
                format!("{{\"op\":\"sleep\",\"ms\":500,\"priority\":\"batch\",\"id\":{i}}}\n")
                    .as_bytes(),
            )
            .expect("send flood");
        flood.push(client);
    }
    wait_for(&mut stats_client, "busy_workers", 1);

    // An interactive compile must jump the batch backlog: it waits for
    // at most the in-flight sleep (500ms), never the full 3s queue —
    // which would blow its deadline.
    let begin = Instant::now();
    let reply = Client::connect(addr).request(&format!(
        r#"{{"op":"compile","no_drc":true,"priority":"interactive","deadline_ms":2500,"source":{}}}"#,
        quoted(&sil_program(11))
    ));
    let waited = begin.elapsed();
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
    assert!(
        waited < Duration::from_millis(2000),
        "interactive request waited {waited:?} behind the batch flood"
    );

    let stats = stats_client.request(r#"{"op":"stats"}"#);
    assert_eq!(stats.get("batch"), Some(&Json::Int(6)), "{stats:?}");
    assert_eq!(stats.get("interactive"), Some(&Json::Int(1)), "{stats:?}");
    // The flood still completes: every batch client gets its reply.
    for client in &mut flood {
        let mut response = String::new();
        client.reader.read_line(&mut response).expect("flood reply");
        let reply = parse_json(response.trim()).expect("well-formed flood reply");
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
    }
    handle.shutdown();
}

/// Polls the stats op until `field` reaches `want` (or panics after 5s).
fn wait_for(stats_client: &mut Client, field: &str, want: i128) {
    let begin = Instant::now();
    loop {
        let stats = stats_client.request(r#"{"op":"stats"}"#);
        if stats.get(field) == Some(&Json::Int(want)) {
            return;
        }
        assert!(
            begin.elapsed() < Duration::from_secs(5),
            "`{field}` never reached {want}: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn sigint_drains_the_real_binary_and_exits_zero() {
    let trace_path =
        std::env::temp_dir().join(format!("silc-serve-sigint-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&trace_path);
    let mut child = silc()
        .args(["serve", "--addr", "127.0.0.1:0", "--jobs", "2"])
        .arg("--trace")
        .arg(&trace_path)
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let stderr = child.stderr.take().expect("stderr piped");
    let mut banner = String::new();
    BufReader::new(stderr)
        .read_line(&mut banner)
        .expect("banner");
    let addr: SocketAddr = banner
        .split_whitespace()
        .find_map(|word| word.trim_end_matches(';').parse().ok())
        .unwrap_or_else(|| panic!("no address in banner: {banner:?}"));

    // One real request over the wire proves the server is up.
    let mut client = Client::connect(addr);
    let reply = client.request(&format!(
        r#"{{"op":"compile","no_drc":true,"source":{}}}"#,
        quoted(&sil_program(7))
    ));
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");

    let interrupt = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(interrupt.success(), "could not signal the server");
    let begin = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait") {
            break status;
        }
        assert!(
            begin.elapsed() < Duration::from_secs(15),
            "server did not exit after SIGINT"
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    assert!(status.success(), "SIGINT exit was not clean: {status:?}");

    // The trace flushed on the way out, as well-formed JSONL naming the
    // serve counters.
    let trace = std::fs::read_to_string(&trace_path).expect("trace file written");
    for line in trace.lines() {
        parse_json(line).unwrap_or_else(|e| panic!("bad JSONL line `{line}`: {e}"));
    }
    assert!(trace.contains("\"serve.accept\""), "{trace}");
    assert!(trace.contains("\"serve.requests\""), "{trace}");
    let _ = std::fs::remove_file(&trace_path);
}

/// A randomized leaf-cell program (same family as the incremental
/// engine's equivalence suite).
fn random_program(dims: &[(i64, i64)]) -> String {
    use std::fmt::Write as _;
    let mut src = String::new();
    let mut top = String::from("cell top() {\n");
    for (i, &(w, h)) in dims.iter().enumerate() {
        writeln!(
            src,
            "cell c{i}() {{ box metal (0, 0) ({w}, {h}); box poly (-2, {y0}) ({w}, {y1}); }}",
            y0 = h + 3,
            y1 = h + 5,
        )
        .unwrap();
        writeln!(top, "place c{i}() at ({}, 0);", i as i64 * 40).unwrap();
    }
    top.push_str("}\nplace top() at (0, 0);");
    src.push_str(&top);
    src
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    /// For random programs, the served `cif` field is byte-identical to
    /// what `silc compile` prints on stdout.
    #[test]
    fn served_compile_is_byte_identical_to_the_cli(
        dims in prop::collection::vec((4i64..24, 4i64..24), 1..4),
    ) {
        let source = random_program(&dims);
        let (addr, handle) = start(ServerConfig {
            jobs: 1,
            queue_capacity: 4,
            ..ServerConfig::default()
        });
        let reply = Client::connect(addr).request(&format!(
            r#"{{"op":"compile","no_drc":true,"source":{}}}"#,
            quoted(&source)
        ));
        handle.shutdown();
        prop_assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
        let served = reply.get("cif").and_then(Json::as_str).expect("cif");
        let cli = cli_compile_stdout(&source, "prop");
        prop_assert_eq!(served.as_bytes(), &cli[..]);
    }
}

#[test]
fn serve_rejects_misuse_of_the_cli() {
    // An input file is a usage error for the daemon.
    let out = silc().args(["serve", "design.sil"]).output().expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("takes no input file"), "{stderr}");
    // `--addr` belongs to serve alone.
    let out = silc()
        .args(["sim", "x.isl", "--addr", "127.0.0.1:0"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--addr"), "{stderr}");
    assert!(stderr.contains("silc serve"), "{stderr}");
}
