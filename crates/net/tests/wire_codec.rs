//! The wire codec's byte layouts and its behaviour on hostile input.
//!
//! One sample of every message variant is encoded and compared with
//! bytes recorded from an earlier, independently written codec: a layout
//! change shows up here as a hex diff, not as a peer that cannot decode.
//! The same samples then feed one generic sweep that truncates, flips and
//! stamps every byte. Decoding is canonical: a frame either fails typed
//! or decodes to a value that encodes back to exactly those bytes.

use grout_core::{
    AccessMode, AccessPattern, AdmissionError, ArrayId, Ce, CeArg, CeId, CeKind, CtrlMsg,
    ExecFault, ExecSpec, ExplorationLevel, FaultConfig, FaultEvent, FaultKind, FaultPlan, HostBuf,
    KernelCost, LinkMatrix, LocalArg, MemAdvise, PlannerConfig, PlannerOp, PolicyKind, Priority,
    SimDuration, WorkerCounters, WorkerMsg, WorkerSpan, WorkerSpanKind,
};
use grout_net::wire::{self, ClientMsg, CtldMsg, Hello, WireError};
use kernelc::LaunchError;

/// Decodes a frame and encodes the result again.
type Reencode = fn(&[u8]) -> Result<Vec<u8>, WireError>;

struct Sample {
    name: String,
    bytes: Vec<u8>,
    reencode: Reencode,
}

fn ctrl(msg: CtrlMsg) -> (Vec<u8>, Reencode) {
    (wire::encode_ctrl(&msg), |b| {
        wire::decode_ctrl(b).map(|m| wire::encode_ctrl(&m))
    })
}

fn worker(msg: WorkerMsg) -> (Vec<u8>, Reencode) {
    (wire::encode_worker(&msg), |b| {
        wire::decode_worker(b).map(|m| wire::encode_worker(&m))
    })
}

fn op(op: PlannerOp) -> (Vec<u8>, Reencode) {
    (wire::encode_op(&op), |b| {
        wire::decode_op(b).map(|o| wire::encode_op(&o))
    })
}

fn header(cfg: PlannerConfig, links: Option<LinkMatrix>) -> (Vec<u8>, Reencode) {
    (wire::encode_journal_header(&cfg, &links), |b| {
        wire::decode_journal_header(b).map(|(c, l)| wire::encode_journal_header(&c, &l))
    })
}

fn hello(h: Hello) -> (Vec<u8>, Reencode) {
    (wire::encode_hello(&h), |b| {
        wire::decode_hello(b).map(|h| wire::encode_hello(&h))
    })
}

fn ack(index: usize, resumed: bool, cursor: u64) -> (Vec<u8>, Reencode) {
    (wire::encode_ack(index, resumed, cursor), |b| {
        wire::decode_ack(b).map(|a| wire::encode_ack(a.index, a.resumed, a.cursor))
    })
}

fn client(msg: ClientMsg) -> (Vec<u8>, Reencode) {
    (wire::encode_client(&msg), |b| {
        wire::decode_client(b).map(|m| wire::encode_client(&m))
    })
}

fn ctld(msg: CtldMsg) -> (Vec<u8>, Reencode) {
    (wire::encode_ctld(&msg), |b| {
        wire::decode_ctld(b).map(|m| wire::encode_ctld(&m))
    })
}

fn config(workers: usize, policy: PolicyKind, faults: Vec<FaultEvent>) -> PlannerConfig {
    PlannerConfig {
        faults: FaultPlan::with_events(faults),
        ..PlannerConfig::new(workers, policy)
    }
}

fn kernel_ce() -> Ce {
    Ce {
        id: CeId(9),
        kind: CeKind::Kernel {
            name: "saxpy".into(),
            cost: KernelCost {
                flops: 2.5e9,
                bytes_read: 1 << 22,
                bytes_written: 1 << 21,
            },
        },
        args: vec![
            CeArg::read(ArrayId(1), 4096),
            CeArg {
                array: ArrayId(2),
                bytes: 512,
                alloc_bytes: 1 << 16,
                mode: AccessMode::Write,
                pattern: AccessPattern::Gather {
                    touches_per_page: 3.75,
                },
                advise: MemAdvise::ReadMostly,
            },
            CeArg {
                array: ArrayId(3),
                bytes: 64,
                alloc_bytes: 64,
                mode: AccessMode::ReadWrite,
                pattern: AccessPattern::Strided {
                    touches_per_page: 0.5,
                },
                advise: MemAdvise::PreferredHost,
            },
        ],
    }
}

fn exec(fault: Option<ExecFault>) -> CtrlMsg {
    CtrlMsg::Exec(ExecSpec {
        dag_index: 9,
        kernel: 3,
        grid: (16, 2),
        block: (128, 1),
        args: vec![
            LocalArg::Buf(ArrayId(1)),
            LocalArg::F32(0.5),
            LocalArg::I32(-7),
        ],
        needs: vec![(ArrayId(1), 4)],
        bumps: vec![(ArrayId(1), 5), (ArrayId(2), 1)],
        fault,
    })
}

/// One sample of every variant of every message the codec carries.
fn samples() -> Vec<Sample> {
    let launch_errors = [
        LaunchError::Arity {
            expected: 3,
            got: 2,
        },
        LaunchError::ArgType {
            index: 1,
            expected: "pointer float".into(),
        },
        LaunchError::OutOfBounds {
            param: 0,
            index: -4,
            len: 16,
        },
        LaunchError::DivideByZero,
        LaunchError::StepBudgetExceeded,
        LaunchError::EmptyLaunch,
    ];
    let all_faults = vec![
        FaultEvent {
            at_ce: 2,
            kind: FaultKind::KillWorker,
        },
        FaultEvent {
            at_ce: 5,
            kind: FaultKind::FailLaunch { times: 4 },
        },
        FaultEvent {
            at_ce: 6,
            kind: FaultKind::DropTransfer,
        },
        FaultEvent {
            at_ce: 9,
            kind: FaultKind::DelayTransfer {
                delay: SimDuration(1_000_000),
            },
        },
    ];
    let mut flags = config(
        3,
        PolicyKind::MinTransferTime(ExplorationLevel::High),
        vec![],
    );
    flags.p2p_enabled = false;
    flags.flat_scheduling = true;
    flags.controller_colocated = true;
    flags.fault_cfg = FaultConfig {
        max_retries: 7,
        recovery: false,
        ..FaultConfig::default()
    };

    let mut out: Vec<(String, (Vec<u8>, Reencode))> = vec![
        (
            "ctrl Data".into(),
            ctrl(CtrlMsg::Data {
                array: ArrayId(7),
                version: 42,
                buf: HostBuf::F32(vec![1.5, -0.0, f32::NAN, 3.25e-12]),
            }),
        ),
        (
            "ctrl LoadKernel".into(),
            ctrl(CtrlMsg::LoadKernel {
                id: 5,
                name: "k".into(),
                source: "__global__ void k(float* x) {}".into(),
                compiled: None,
            }),
        ),
        ("ctrl Exec".into(), ctrl(exec(Some(ExecFault::Crash)))),
        (
            "ctrl Send".into(),
            ctrl(CtrlMsg::Send {
                array: ArrayId(3),
                min_version: 2,
                to: Some(1),
            }),
        ),
        (
            "ctrl Probe".into(),
            ctrl(CtrlMsg::Probe {
                token: 11,
                payload: vec![1, 2, 3, 0xFF],
            }),
        ),
        (
            "ctrl ProbePeer".into(),
            ctrl(CtrlMsg::ProbePeer {
                token: 12,
                to: 2,
                bytes: 1 << 20,
            }),
        ),
        (
            "ctrl PeerProbe".into(),
            ctrl(CtrlMsg::PeerProbe {
                token: 13,
                from: 1,
                payload: vec![9; 3],
            }),
        ),
        (
            "ctrl PeerProbeEcho".into(),
            ctrl(CtrlMsg::PeerProbeEcho {
                token: 14,
                payload: vec![0x80],
            }),
        ),
        ("ctrl Shutdown".into(), ctrl(CtrlMsg::Shutdown)),
        (
            "ctrl Observe".into(),
            ctrl(CtrlMsg::Observe { enabled: true }),
        ),
        (
            "ctrl ShipInit".into(),
            ctrl(CtrlMsg::ShipInit {
                cfg: config(2, PolicyKind::RoundRobin, all_faults.clone()),
                links: Some(LinkMatrix::new(vec![
                    vec![0.0, 1e9, 2e9],
                    vec![1e9, 0.0, 3e9],
                    vec![2e9, 3e9, 0.0],
                ])),
            }),
        ),
        (
            "ctrl ShipOp".into(),
            ctrl(CtrlMsg::ShipOp {
                seq: 42,
                op: PlannerOp::Recover {
                    dead: 1,
                    incomplete: vec![4, 6],
                },
            }),
        ),
        ("ctrl Leave".into(), ctrl(CtrlMsg::Leave)),
        (
            "ctrl Peers".into(),
            ctrl(CtrlMsg::Peers {
                addrs: vec!["127.0.0.1:4000".into(), String::new()],
            }),
        ),
        (
            "ctrl Batch".into(),
            ctrl(CtrlMsg::Batch(vec![
                CtrlMsg::Data {
                    array: ArrayId(3),
                    version: 2,
                    buf: HostBuf::I32(vec![1, -2, 3]),
                },
                CtrlMsg::Send {
                    array: ArrayId(3),
                    min_version: 2,
                    to: None,
                },
                exec(None),
                exec(Some(ExecFault::FailTransient)),
            ])),
        ),
        (
            "ctrl Reclaim".into(),
            ctrl(CtrlMsg::Reclaim {
                arrays: vec![ArrayId(1 << 40 | 7), ArrayId(1 << 40 | 9)],
                kernels: vec![1 << 40 | 1],
            }),
        ),
        (
            "worker Done".into(),
            worker(WorkerMsg::Done {
                dag_index: 17,
                worker: 1,
                elapsed_ns: 12_345,
            }),
        ),
        (
            "worker Data".into(),
            worker(WorkerMsg::Data {
                array: ArrayId(4),
                version: 3,
                buf: HostBuf::F32(vec![0.25, -8.0]),
            }),
        ),
        (
            "worker Failed None".into(),
            worker(WorkerMsg::Failed {
                dag_index: 3,
                worker: 0,
                error: None,
            }),
        ),
        (
            "worker Heartbeat".into(),
            worker(WorkerMsg::Heartbeat { worker: 2 }),
        ),
        (
            "worker ProbeEcho".into(),
            worker(WorkerMsg::ProbeEcho {
                worker: 1,
                token: 11,
                payload: vec![1, 2, 3, 0xFF],
            }),
        ),
        (
            "worker ProbeReport".into(),
            worker(WorkerMsg::ProbeReport {
                worker: 1,
                to: 2,
                bytes: 1 << 20,
                elapsed_ns: 80_000,
            }),
        ),
        (
            "worker Telemetry".into(),
            worker(WorkerMsg::Telemetry {
                worker: 1,
                seq: 42,
                backlog: 3,
                counters: WorkerCounters {
                    kernels: 9,
                    recompiles: 2,
                    sends: 4,
                    recvs: 5,
                    bytes_out: 4096,
                    bytes_in: 8192,
                    dropped: 1,
                },
                spans: vec![
                    WorkerSpan {
                        kind: WorkerSpanKind::Execute,
                        name: "saxpy".into(),
                        start_ns: 1_000_000,
                        dur_ns: 250,
                        dag_index: 7,
                        bytes: 0,
                    },
                    WorkerSpan {
                        kind: WorkerSpanKind::Transfer,
                        name: "recv".into(),
                        start_ns: 999_000,
                        dur_ns: 80,
                        dag_index: u64::MAX,
                        bytes: 4096,
                    },
                    WorkerSpan {
                        kind: WorkerSpanKind::Recompile,
                        name: "k".into(),
                        start_ns: 5,
                        dur_ns: 6,
                        dag_index: 1,
                        bytes: 0,
                    },
                ],
            }),
        ),
        (
            "worker ShipAck".into(),
            worker(WorkerMsg::ShipAck {
                seq: 42,
                digest: 0xDEAD_BEEF,
            }),
        ),
        (
            "worker Leave".into(),
            worker(WorkerMsg::Leave { worker: 5 }),
        ),
        ("op Alloc".into(), op(PlannerOp::Alloc { bytes: 1 << 20 })),
        ("op Free".into(), op(PlannerOp::Free { array: ArrayId(3) })),
        (
            "op PlanCe Kernel".into(),
            op(PlannerOp::PlanCe { ce: kernel_ce() }),
        ),
        (
            "op PlanCe HostRead".into(),
            op(PlannerOp::PlanCe {
                ce: Ce {
                    id: CeId(10),
                    kind: CeKind::HostRead,
                    args: vec![],
                },
            }),
        ),
        (
            "op PlanCe HostWrite".into(),
            op(PlannerOp::PlanCe {
                ce: Ce {
                    id: CeId(11),
                    kind: CeKind::HostWrite,
                    args: vec![CeArg::read(ArrayId(5), 16)],
                },
            }),
        ),
        (
            "op MarkCompleted".into(),
            op(PlannerOp::MarkCompleted { dag_index: 7 }),
        ),
        (
            "op Quarantine".into(),
            op(PlannerOp::Quarantine { worker: 2 }),
        ),
        (
            "op Recover".into(),
            op(PlannerOp::Recover {
                dead: 1,
                incomplete: vec![4, 6],
            }),
        ),
        (
            "op ReprobeLinks".into(),
            op(PlannerOp::ReprobeLinks {
                links: LinkMatrix::new(vec![vec![1.0, 2.5], vec![3.25, 4.0]]),
            }),
        ),
        ("op Suspect".into(), op(PlannerOp::Suspect { worker: 1 })),
        (
            "op Reinstate".into(),
            op(PlannerOp::Reinstate { worker: 1 }),
        ),
        ("op Rejoin".into(), op(PlannerOp::Rejoin { worker: 2 })),
        ("op Join".into(), op(PlannerOp::Join { worker: 3 })),
        ("op Leave".into(), op(PlannerOp::Leave { worker: 3 })),
        (
            "hello Controller".into(),
            hello(Hello::Controller {
                index: 1,
                total: 2,
                heartbeat_ms: 100,
                peers: vec!["127.0.0.1:4000".into(), "127.0.0.1:4001".into()],
                session_id: 0xDEAD_BEEF,
                resume: Some(17),
            }),
        ),
        ("hello Peer".into(), hello(Hello::Peer { from: 3 })),
        ("hello Client".into(), hello(Hello::Client)),
        ("ack fresh".into(), ack(0, false, 0)),
        ("ack resumed".into(), ack(3, true, 42)),
        (
            "client Attach".into(),
            client(ClientMsg::Attach {
                source: "print(1)".into(),
                priority: Priority::High,
                declared_bytes: 4096,
            }),
        ),
        ("client Detach".into(), client(ClientMsg::Detach)),
        (
            "ctld Attached".into(),
            ctld(CtldMsg::Attached { session: 3 }),
        ),
        ("ctld Queued".into(), ctld(CtldMsg::Queued { position: 2 })),
        (
            "ctld Rejected Saturated".into(),
            ctld(CtldMsg::Rejected(AdmissionError::Saturated {
                active: 4,
                max: 4,
            })),
        ),
        (
            "ctld Rejected QueueFull".into(),
            ctld(CtldMsg::Rejected(AdmissionError::QueueFull {
                queued: 8,
                max: 8,
            })),
        ),
        (
            "ctld Rejected ResidentBytes".into(),
            ctld(CtldMsg::Rejected(AdmissionError::ResidentBytes {
                declared: 1 << 30,
                max: 1 << 20,
            })),
        ),
        (
            "ctld Output".into(),
            ctld(CtldMsg::Output {
                lines: vec!["a".into(), "bc".into()],
            }),
        ),
        (
            "ctld Finished".into(),
            ctld(CtldMsg::Finished { kernels: 12 }),
        ),
        (
            "ctld Failed".into(),
            ctld(CtldMsg::Failed {
                message: "script error".into(),
            }),
        ),
        (
            "clock ping".into(),
            (wire::encode_clock_ping(2, 12_345), |b| {
                wire::decode_clock_ping(b).map(|(w, t1)| wire::encode_clock_ping(w, t1))
            }),
        ),
        (
            "clock pong".into(),
            (wire::encode_clock_pong(12_345, 67_890), |b| {
                wire::decode_clock_pong(b).map(|(t1, t2)| wire::encode_clock_pong(t1, t2))
            }),
        ),
        (
            "clock sample".into(),
            (wire::encode_clock_sample(1, -5_000, 900), |b| {
                wire::decode_clock_sample(b).map(|(w, o, r)| wire::encode_clock_sample(w, o, r))
            }),
        ),
        (
            "session ack".into(),
            (wire::encode_session_ack(99), |b| {
                wire::decode_session_ack(b).map(wire::encode_session_ack)
            }),
        ),
        (
            "header RoundRobin".into(),
            header(config(2, PolicyKind::RoundRobin, all_faults), None),
        ),
        (
            "header VectorStep".into(),
            header(
                config(2, PolicyKind::VectorStep(vec![1, 2, 3]), vec![]),
                Some(LinkMatrix::uniform(3, 1e9)),
            ),
        ),
        (
            "header MinTransferSize".into(),
            header(
                config(
                    4,
                    PolicyKind::MinTransferSize(ExplorationLevel::Low),
                    vec![],
                ),
                None,
            ),
        ),
        (
            "header MinTransferTime".into(),
            header(flags, Some(LinkMatrix::uniform(4, 2.5e9))),
        ),
    ];
    for (i, e) in launch_errors.into_iter().enumerate() {
        out.push((
            format!("worker Failed LaunchError {i}"),
            worker(WorkerMsg::Failed {
                dag_index: 3,
                worker: 1,
                error: Some(e),
            }),
        ));
    }
    out.into_iter()
        .map(|(name, (bytes, reencode))| Sample {
            name,
            bytes,
            reencode,
        })
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Every sample's bytes, as encoded by the codec the table layouts
/// replaced (a separately written `encode_*` function per message). Wire
/// v8 re-recorded only the `PlannerConfig` carriers (`ShipInit`, the
/// journal headers: the fault config lost its three TCP liveness fields)
/// and the handshake version field.
const GOLDEN: &[(&str, &str)] = &[
    ("ctrl Data", "0007000000000000002a000000000000000004000000000000000000c03f000000800000c07fccb2642c"),
    ("ctrl LoadKernel", "01050000000000000001000000000000006b1e000000000000005f5f676c6f62616c5f5f20766f6964206b28666c6f61742a207829207b7d"),
    ("ctrl Exec", "0209000000000000000300000000000000100000000200000080000000010000000300000000000000000100000000000000010000003f02f9ffffff0100000000000000010000000000000004000000000000000200000000000000010000000000000005000000000000000200000000000000010000000000000001"),
    ("ctrl Send", "03030000000000000002000000000000000101000000"),
    ("ctrl Probe", "040b000000000000000400000000000000010203ff"),
    ("ctrl ProbePeer", "050c00000000000000020000000000100000000000"),
    ("ctrl PeerProbe", "060d00000000000000010000000300000000000000090909"),
    ("ctrl PeerProbeEcho", "070e00000000000000010000000000000080"),
    ("ctrl Shutdown", "08"),
    ("ctrl Observe", "0901"),
    ("ctrl ShipInit", "0a020000000001000004000000000000000200000000000000000500000000000000010400000006000000000000000209000000000000000340420f00000000000300000040420f000000000000e1f5050000000080b2e60e0000000001010300000000000000000000000000000065cdcd410000000065cddd410000000065cdcd410000000000000000000000c00b5ae6410000000065cddd41000000c00b5ae6410000000000000000"),
    ("ctrl ShipOp", "0b2a000000000000000501000000020000000000000004000000000000000600000000000000"),
    ("ctrl Leave", "0c"),
    ("ctrl Peers", "0d020000000e000000000000003132372e302e302e313a343030300000000000000000"),
    ("ctrl Batch", "0e040000002600000000000000000300000000000000020000000000000001030000000000000001000000feffffff0300000012000000000000000303000000000000000200000000000000007d000000000000000209000000000000000300000000000000100000000200000080000000010000000300000000000000000100000000000000010000003f02f9ffffff01000000000000000100000000000000040000000000000002000000000000000100000000000000050000000000000002000000000000000100000000000000007d000000000000000209000000000000000300000000000000100000000200000080000000010000000300000000000000000100000000000000010000003f02f9ffffff0100000000000000010000000000000004000000000000000200000000000000010000000000000005000000000000000200000000000000010000000000000002"),
    ("ctrl Reclaim", "0f0200000007000000000100000900000000010000010000000100000000010000"),
    ("worker Done", "001100000000000000010000003930000000000000"),
    ("worker Data", "01040000000000000003000000000000000002000000000000000000803e000000c1"),
    ("worker Failed None", "0203000000000000000000000000"),
    ("worker Heartbeat", "0302000000"),
    ("worker ProbeEcho", "04010000000b000000000000000400000000000000010203ff"),
    ("worker ProbeReport", "05010000000200000000001000000000008038010000000000"),
    ("worker Telemetry", "060100010000002a000000000000000300000000000000090000000000000002000000000000000400000000000000050000000000000000100000000000000020000000000000010000000000000003000000000500000000000000736178707940420f0000000000fa000000000000000700000000000000000000000000000001040000000000000072656376583e0f00000000005000000000000000ffffffffffffffff00100000000000000201000000000000006b0500000000000000060000000000000001000000000000000000000000000000"),
    ("worker ShipAck", "072a00000000000000efbeadde00000000"),
    ("worker Leave", "0805000000"),
    ("op Alloc", "000000100000000000"),
    ("op Free", "010300000000000000"),
    ("op PlanCe Kernel", "0209000000000000000005000000000000007361787079000000205fa0e2410000400000000000000020000000000003000000000000000100000000000000001000000000000000100000000000000000000000000000f03f0002000000000000000002000000000000000001000000000001010000000000000e40010300000000000000400000000000000040000000000000000202000000000000e03f02"),
    ("op PlanCe HostRead", "020a00000000000000010000000000000000"),
    ("op PlanCe HostWrite", "020b000000000000000201000000000000000500000000000000100000000000000010000000000000000000000000000000f03f00"),
    ("op MarkCompleted", "030700000000000000"),
    ("op Quarantine", "0402000000"),
    ("op Recover", "0501000000020000000000000004000000000000000600000000000000"),
    ("op ReprobeLinks", "0602000000000000000000f03f00000000000004400000000000000a400000000000001040"),
    ("op Suspect", "0701000000"),
    ("op Reinstate", "0801000000"),
    ("op Rejoin", "0902000000"),
    ("op Join", "0a03000000"),
    ("op Leave", "0b03000000"),
    ("hello Controller", "47524e5408000001000000020000006400000002000000000000000e000000000000003132372e302e302e313a343030300e000000000000003132372e302e302e313a34303031efbeadde00000000011100000000000000"),
    ("hello Peer", "47524e5408000103000000"),
    ("hello Client", "47524e54080002"),
    ("ack fresh", "47524e54080000000000000000000000000000"),
    ("ack resumed", "47524e54080003000000012a00000000000000"),
    ("client Attach", "0008000000000000007072696e74283129020010000000000000"),
    ("client Detach", "01"),
    ("ctld Attached", "000300000000000000"),
    ("ctld Queued", "0102000000"),
    ("ctld Rejected Saturated", "02000400000004000000"),
    ("ctld Rejected QueueFull", "02010800000008000000"),
    ("ctld Rejected ResidentBytes", "020200000040000000000000100000000000"),
    ("ctld Output", "030200000001000000000000006102000000000000006263"),
    ("ctld Finished", "040c00000000000000"),
    ("ctld Failed", "050c00000000000000736372697074206572726f72"),
    ("clock ping", "f0020000003930000000000000"),
    ("clock pong", "f039300000000000003209010000000000"),
    ("clock sample", "f10100000078ecffffffffffff8403000000000000"),
    ("session ack", "f26300000000000000"),
    ("header RoundRobin", "020000000001000004000000000000000200000000000000000500000000000000010400000006000000000000000209000000000000000340420f00000000000300000040420f000000000000e1f5050000000080b2e60e000000000100"),
    ("header VectorStep", "0200000001030000000000000001000000020000000300000001000000000000000000000300000040420f000000000000e1f5050000000080b2e60e000000000101030000000000000065cdcd410000000065cdcd410000000065cdcd410000000065cdcd410000000065cdcd410000000065cdcd410000000065cdcd410000000065cdcd410000000065cdcd41"),
    ("header MinTransferSize", "04000000020001000000000000000000000300000040420f000000000000e1f5050000000080b2e60e000000000100"),
    ("header MinTransferTime", "03000000030200010100000000000000000700000040420f000000000000e1f5050000000080b2e60e00000000000104000000000000205fa0e241000000205fa0e241000000205fa0e241000000205fa0e241000000205fa0e241000000205fa0e241000000205fa0e241000000205fa0e241000000205fa0e241000000205fa0e241000000205fa0e241000000205fa0e241000000205fa0e241000000205fa0e241000000205fa0e241000000205fa0e241"),
    ("worker Failed LaunchError 0", "02030000000000000001000000010003000000000000000200000000000000"),
    ("worker Failed LaunchError 1", "02030000000000000001000000010101000000000000000d00000000000000706f696e74657220666c6f6174"),
    ("worker Failed LaunchError 2", "0203000000000000000100000001020000000000000000fcffffffffffffff1000000000000000"),
    ("worker Failed LaunchError 3", "020300000000000000010000000103"),
    ("worker Failed LaunchError 4", "020300000000000000010000000104"),
    ("worker Failed LaunchError 5", "020300000000000000010000000105"),
];

#[test]
fn every_variant_encodes_to_the_recorded_bytes_and_back() {
    let samples = samples();
    assert_eq!(samples.len(), GOLDEN.len(), "one recorded frame per sample");
    for (s, (name, want)) in samples.iter().zip(GOLDEN) {
        assert_eq!(&s.name, name);
        assert_eq!(&hex(&s.bytes), want, "{name}: layout changed");
        let again = (s.reencode)(&s.bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(again, s.bytes, "{name}: decode-encode is not the identity");
    }
}

/// Feeds `bad` to the sample's decoder: it must fail typed, or decode to
/// a value that encodes back to exactly `bad` (no lenient reading).
fn decodes_canonically(s: &Sample, bad: &[u8], what: &str) {
    if let Ok(again) = (s.reencode)(bad) {
        assert_eq!(
            hex(&again),
            hex(bad),
            "{}: {what} decoded to a different frame",
            s.name
        );
    }
}

/// Every truncation fails; every single-byte flip and every `u32::MAX` /
/// `u64::MAX` stamped at any offset fails or decodes canonically. A
/// stamped count or length can never decode canonically (the frame does
/// not hold that many elements), so every count field set to its maximum
/// is an error, and it must be one without a huge allocation or abort.
fn hostile_sweep(s: &Sample) {
    for n in 0..s.bytes.len() {
        assert!(
            (s.reencode)(&s.bytes[..n]).is_err(),
            "{}: truncation to {n} bytes decoded",
            s.name
        );
    }
    for i in 0..s.bytes.len() {
        for mask in [0x01, 0x80, 0xFF] {
            let mut bad = s.bytes.clone();
            bad[i] ^= mask;
            decodes_canonically(s, &bad, &format!("byte {i} ^ {mask:#04x}"));
        }
        for stamp in [&u32::MAX.to_le_bytes()[..], &u64::MAX.to_le_bytes()[..]] {
            if i + stamp.len() <= s.bytes.len() {
                let mut bad = s.bytes.clone();
                bad[i..i + stamp.len()].copy_from_slice(stamp);
                decodes_canonically(s, &bad, &format!("{}-byte MAX at {i}", stamp.len()));
            }
        }
    }
}

#[test]
fn every_variant_survives_the_hostile_sweep() {
    for s in &samples() {
        hostile_sweep(s);
    }
}

#[test]
fn handshake_frames_reject_trailing_bytes() {
    let mut h = wire::encode_hello(&Hello::Peer { from: 1 });
    h.push(0);
    assert!(wire::decode_hello(&h).is_err());
    let mut a = wire::encode_ack(1, true, 3);
    a.push(0);
    assert!(wire::decode_ack(&a).is_err());
}

#[test]
fn flag_bytes_other_than_0_or_1_are_malformed() {
    // The `resumed` byte sits after magic (4), version (2) and index (4).
    let mut a = wire::encode_ack(1, true, 3);
    a[10] = 2;
    assert!(wire::decode_ack(&a).is_err());
    // The p2p flag follows the u32 worker count and the round-robin tag.
    let cfg = PlannerConfig::new(2, PolicyKind::RoundRobin);
    let mut h = wire::encode_journal_header(&cfg, &None);
    assert_eq!(h[5], 1, "p2p_enabled");
    h[5] = 2;
    assert!(wire::decode_journal_header(&h).is_err());
}
