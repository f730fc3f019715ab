/**
 * @file
 * Tests for the observability layer (src/obs): the JSON document
 * model (round trips, escaping, schema-stable key order, parse
 * errors), the registered stat tree (checked lookups, flattening,
 * structured snapshots), the Chrome trace-event recorder, and the
 * machine-readable bench report schema.  Ends with a structural check
 * of a traced duplex saturation run of the full NIC model.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "nic/controller.hh"
#include "obs/bench_json.hh"
#include "obs/json.hh"
#include "obs/stat_registry.hh"
#include "obs/trace_log.hh"
#include "sim/logging.hh"

using namespace tengig;
using namespace tengig::obs;
using tengig::FatalError;

// ---------------------------------------------------------------- JSON

TEST(Json, RoundTripsNestedDocument)
{
    json::Value doc = json::Value::object();
    doc.set("name", "bench");
    doc.set("count", 42);
    doc.set("ratio", 0.125);
    doc.set("ok", true);
    doc.set("missing", nullptr);
    json::Value arr = json::Value::array();
    arr.push(1);
    arr.push("two");
    json::Value inner = json::Value::object();
    inner.set("deep", 3.5);
    arr.push(std::move(inner));
    doc.set("items", std::move(arr));

    for (unsigned indent : {0u, 2u}) {
        std::string text = doc.dump(indent);
        std::string err;
        auto parsed = json::parse(text, &err);
        ASSERT_TRUE(parsed.has_value()) << err;
        EXPECT_EQ(parsed->at("name").asString(), "bench");
        EXPECT_DOUBLE_EQ(parsed->at("count").asNumber(), 42.0);
        EXPECT_DOUBLE_EQ(parsed->at("ratio").asNumber(), 0.125);
        EXPECT_TRUE(parsed->at("ok").asBool());
        EXPECT_TRUE(parsed->at("missing").isNull());
        const json::Array &items = parsed->at("items").asArray();
        ASSERT_EQ(items.size(), 3u);
        EXPECT_EQ(items[1].asString(), "two");
        EXPECT_DOUBLE_EQ(items[2].at("deep").asNumber(), 3.5);
        // Serialize-parse-serialize is a fixed point: key order and
        // number formatting are stable.
        EXPECT_EQ(parsed->dump(indent), text);
    }
}

TEST(Json, EscapesAndParsesSpecialCharacters)
{
    const std::string nasty =
        "quote:\" backslash:\\ newline:\n tab:\t ctl:\x01 slash:/";
    json::Value v(nasty);
    std::string text = v.dump();
    // The serialized form must not contain raw control characters.
    for (char c : text)
        EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
    auto parsed = json::parse(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->asString(), nasty);

    // Escape sequences and \uXXXX forms parse back to raw bytes.
    auto esc = json::parse("\"a\\u0041\\n\\t\\\\\\\"\"");
    ASSERT_TRUE(esc.has_value());
    EXPECT_EQ(esc->asString(), "aA\n\t\\\"");
}

TEST(Json, ObjectKeysKeepInsertionOrder)
{
    json::Value doc = json::Value::object();
    doc.set("zebra", 1);
    doc.set("apple", 2);
    doc.set("mango", 3);
    doc.set("apple", 20); // overwrite must not move the key
    std::string text = doc.dump();
    EXPECT_LT(text.find("zebra"), text.find("apple"));
    EXPECT_LT(text.find("apple"), text.find("mango"));
    EXPECT_DOUBLE_EQ(doc.at("apple").asNumber(), 20.0);
    ASSERT_EQ(doc.asObject().size(), 3u);
}

TEST(Json, ParserRejectsMalformedDocuments)
{
    for (const char *bad : {
             "",                  // empty
             "{",                 // unterminated object
             "[1, 2",             // unterminated array
             "\"abc",             // unterminated string
             "{\"a\" 1}",         // missing colon
             "{\"a\":1,}",        // trailing comma
             "nul",               // bad keyword
             "01",                // leading zero
             "1.2.3",             // bad number
             "[1] extra",         // trailing garbage
             "\"\x01\"",          // raw control char in string
         }) {
        std::string err;
        EXPECT_FALSE(json::parse(bad, &err).has_value()) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

TEST(Json, CheckedAccessorsAreFatal)
{
    json::Value doc = json::Value::object();
    doc.set("num", 1.0);
    EXPECT_THROW(doc.at("absent"), FatalError);
    EXPECT_THROW(doc.at("num").asString(), FatalError);
    EXPECT_THROW(doc.at("num").asArray(), FatalError);
    EXPECT_EQ(doc.find("absent"), nullptr);

    json::Value arr = json::Value::array();
    arr.push(1);
    EXPECT_THROW(arr.at(1), FatalError);
    EXPECT_THROW(arr.set("k", 1), FatalError);
    // Non-finite numbers would poison downstream tooling.
    EXPECT_THROW(json::Value(std::numeric_limits<double>::infinity()),
                 FatalError);
}

// ------------------------------------------------------- stat registry

TEST(StatRegistry, CheckedLookupsAreFatalOnUnknownNames)
{
    StatGroup root;
    stats::Counter frames;
    frames += 7;
    root.group("mac").add("frames", frames);

    EXPECT_TRUE(root.has("mac.frames"));
    EXPECT_DOUBLE_EQ(root.value("mac.frames"), 7.0);
    EXPECT_EQ(&root.counter("mac.frames"), &frames);

    EXPECT_FALSE(root.has("mac.typo"));
    EXPECT_THROW(root.value("mac.typo"), FatalError);
    EXPECT_THROW(root.counter("nope.frames"), FatalError);
    // Kind mismatch is as fatal as a missing name.
    EXPECT_THROW(root.average("mac.frames"), FatalError);
}

TEST(StatRegistry, DuplicateOrDottedRegistrationIsFatal)
{
    StatGroup root;
    stats::Counter c;
    root.add("frames", c);
    EXPECT_THROW(root.add("frames", c), FatalError);
    EXPECT_THROW(root.add("a.b", c), FatalError);
    // A group may not shadow a stat, and vice versa.
    EXPECT_THROW(root.group("frames"), FatalError);
    root.group("mac");
    EXPECT_THROW(root.add("mac", c), FatalError);
}

TEST(StatRegistry, DuplicateRegistrationNamesBothRegistrants)
{
    StatGroup root;
    stats::Counter first, second;
    root.add("frames", first, "MAC frames committed");
    try {
        root.add("frames", second, "per-VF frames committed");
        FAIL() << "duplicate registration must be fatal";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        // The diagnostic must point at *both* colliding registrants:
        // a silent shadow would let one tenant's subtree report
        // another's numbers.
        EXPECT_NE(msg.find("frames"), std::string::npos) << msg;
        EXPECT_NE(msg.find("MAC frames committed"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("per-VF frames committed"), std::string::npos)
            << msg;
    }
    // Undescribed registrants are still identified.
    try {
        root.add("frames", second);
        FAIL() << "duplicate registration must be fatal";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("<no description>"), std::string::npos) << msg;
        EXPECT_NE(msg.find("MAC frames committed"), std::string::npos)
            << msg;
    }
}

TEST(StatRegistry, DumpFlattensTreeWithDottedNames)
{
    StatGroup root;
    stats::Counter bursts;
    bursts += 3;
    stats::Average occ;
    occ.sample(2.0);
    occ.sample(4.0);
    stats::Histogram lat(10, 4);
    for (unsigned i = 0; i < 100; ++i)
        lat.sample(i % 40);
    root.group("sdram").add("bursts", bursts);
    root.group("sdram").add("occupancy", occ);
    root.group("lat").add("rx", lat);
    root.derived("twiceBursts",
                 [&bursts] { return 2.0 * bursts.value(); });

    // Every stat is addressable by its dotted path from the root.
    EXPECT_DOUBLE_EQ(root.value("sdram.bursts"), 3.0);
    EXPECT_DOUBLE_EQ(root.value("sdram.occupancy"), 3.0);
    EXPECT_DOUBLE_EQ(root.value("twiceBursts"), 6.0);
    // Histograms serialize to a percentile summary.
    json::Value rx = root.toJson().at("lat").at("rx");
    EXPECT_DOUBLE_EQ(rx.at("count").asNumber(), 100.0);
    EXPECT_DOUBLE_EQ(rx.at("mean").asNumber(), lat.mean());
    EXPECT_DOUBLE_EQ(rx.at("p50").asNumber(), lat.p50());
    EXPECT_DOUBLE_EQ(rx.at("p95").asNumber(), lat.p95());
    EXPECT_DOUBLE_EQ(rx.at("p99").asNumber(), lat.p99());

    auto names = root.names();
    EXPECT_EQ(names, (std::vector<std::string>{
                         "lat.rx", "sdram.bursts", "sdram.occupancy",
                         "twiceBursts"}));
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(StatRegistry, DerivedReadsLiveValuesAndToJsonNests)
{
    StatGroup root;
    stats::Counter c;
    root.add("frames", c);
    root.derived("gbps", [&c] { return c.value() * 0.5; });
    c += 8;
    EXPECT_DOUBLE_EQ(root.value("gbps"), 4.0); // read-time, not add-time

    json::Value snap = root.toJson();
    ASSERT_TRUE(snap.isObject());
    EXPECT_DOUBLE_EQ(snap.at("frames").asNumber(), 8.0);
    EXPECT_DOUBLE_EQ(snap.at("gbps").asNumber(), 4.0);
}

// ------------------------------------------------------------ tracing

namespace {

/** Parse a trace document and index lane names by tid. */
std::map<unsigned, std::string>
laneNames(const json::Value &trace)
{
    std::map<unsigned, std::string> names;
    for (const json::Value &e : trace.asArray()) {
        if (e.at("name").isString() &&
            e.at("name").asString() == "thread_name") {
            names[static_cast<unsigned>(e.at("tid").asNumber())] =
                e.at("args").at("name").asString();
        }
    }
    return names;
}

} // namespace

TEST(TraceLog, WritesValidChromeTraceEvents)
{
    TraceLog t;
    unsigned core = t.lane("core0");
    unsigned mem = t.lane("sdram");
    t.complete(core, "Send Frame", 2 * tickPerUs, tickPerUs, "firmware");
    t.instant(core, "halt", 4 * tickPerUs);
    t.counterSample(mem, "busy %", 3 * tickPerUs, 87.5);

    std::string err;
    auto parsed = json::parse(t.str(), &err);
    ASSERT_TRUE(parsed.has_value()) << err;
    ASSERT_TRUE(parsed->isArray());

    auto names = laneNames(*parsed);
    EXPECT_EQ(names.at(core), "core0");
    EXPECT_EQ(names.at(mem), "sdram");

    bool saw_span = false, saw_instant = false, saw_counter = false;
    for (const json::Value &e : parsed->asArray()) {
        const json::Value *ph = e.find("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->asString() == "X") {
            saw_span = true;
            EXPECT_EQ(e.at("name").asString(), "Send Frame");
            EXPECT_EQ(e.at("cat").asString(), "firmware");
            // Timestamps are microseconds (ticks are picoseconds).
            EXPECT_DOUBLE_EQ(e.at("ts").asNumber(), 2.0);
            EXPECT_DOUBLE_EQ(e.at("dur").asNumber(), 1.0);
        } else if (ph->asString() == "i") {
            saw_instant = true;
            EXPECT_DOUBLE_EQ(e.at("ts").asNumber(), 4.0);
        } else if (ph->asString() == "C") {
            saw_counter = true;
            EXPECT_DOUBLE_EQ(e.at("args").at("value").asNumber(), 87.5);
        }
    }
    EXPECT_TRUE(saw_span);
    EXPECT_TRUE(saw_instant);
    EXPECT_TRUE(saw_counter);
}

TEST(TraceLog, BoundedRecordingDropsAndAnnotates)
{
    TraceLog t(2);
    unsigned lane = t.lane("l");
    t.complete(lane, "a", 0, 1);
    t.complete(lane, "b", 1, 1);
    t.complete(lane, "c", 2, 1); // over the cap
    EXPECT_EQ(t.eventCount(), 2u);
    EXPECT_EQ(t.droppedEvents(), 1u);
    // The document still parses and carries a truncation marker.
    auto parsed = json::parse(t.str());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_NE(t.str().find("truncated"), std::string::npos);
}

TEST(TraceLog, DisabledLogRecordsNothing)
{
    TraceLog t;
    unsigned lane = t.lane("l");
    t.setEnabled(false);
    t.complete(lane, "a", 0, 1);
    t.counterSample(lane, "s", 0, 1.0);
    EXPECT_EQ(t.eventCount(), 0u);
    EXPECT_EQ(t.droppedEvents(), 0u);
    t.setEnabled(true);
    t.instant(lane, "b", 0);
    EXPECT_EQ(t.eventCount(), 1u);
}

// --------------------------------------------------------- bench JSON

TEST(BenchJson, ReportHasVersionedSchemaAndStableShape)
{
    BenchReport rep("unit");
    json::Value cfg = json::Value::object();
    cfg.set("cores", 6);
    json::Value met = json::Value::object();
    met.set("totalUdpGbps", 13.4);
    rep.addRow("6 cores", std::move(cfg), std::move(met));

    const json::Value &doc = rep.document();
    EXPECT_EQ(doc.at("schema").asString(), benchSchemaVersion);
    EXPECT_EQ(doc.at("bench").asString(), "unit");
    ASSERT_EQ(rep.rows(), 1u);
    const json::Value &row = doc.at("rows").at(std::size_t{0});
    EXPECT_EQ(row.at("name").asString(), "6 cores");
    EXPECT_DOUBLE_EQ(row.at("config").at("cores").asNumber(), 6.0);
    EXPECT_DOUBLE_EQ(row.at("metrics").at("totalUdpGbps").asNumber(),
                     13.4);
    // The document round-trips through the parser.
    auto parsed = json::parse(doc.dump(2));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->dump(2), doc.dump(2));

    json::Value not_obj = json::Value::array();
    EXPECT_THROW(rep.addRow("bad", std::move(not_obj),
                            json::Value::object()),
                 FatalError);
}

TEST(BenchJson, ArgvHelpers)
{
    const char *argv1[] = {"bench", "--json", "--quick"};
    auto path = jsonPathFromArgs(3, const_cast<char **>(argv1), "fig7");
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(*path, "BENCH_fig7.json");
    EXPECT_TRUE(hasFlag(3, const_cast<char **>(argv1), "--quick"));
    EXPECT_FALSE(hasFlag(3, const_cast<char **>(argv1), "--verbose"));

    const char *argv2[] = {"bench", "--json=/tmp/out.json"};
    path = jsonPathFromArgs(2, const_cast<char **>(argv2), "fig7");
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(*path, "/tmp/out.json");

    const char *argv3[] = {"bench"};
    EXPECT_FALSE(jsonPathFromArgs(1, const_cast<char **>(argv3), "fig7")
                     .has_value());
}

// ------------------------------------------- traced NIC saturation run

// A short duplex saturation run with an attached TraceLog must produce
// a structurally valid chrome://tracing document whose spans cover the
// cores (firmware steps), the DMA and MAC assists, and the SDRAM, plus
// sampled occupancy counters.
TEST(NicTrace, DuplexSaturationRunProducesComponentSpans)
{
    NicConfig cfg;
    TraceLog trace;
    NicController nic(cfg);
    nic.attachTrace(trace);
    NicResults r = nic.run(10 * tickPerUs, 60 * tickPerUs);
    EXPECT_GT(r.txFrames, 0u);
    EXPECT_GT(r.rxFrames, 0u);

    std::string err;
    auto parsed = json::parse(trace.str(), &err);
    ASSERT_TRUE(parsed.has_value()) << err;
    auto names = laneNames(*parsed);

    // Which categories were recorded on which lanes?
    std::map<std::string, unsigned> spans;    // category -> count
    std::map<std::string, unsigned> by_lane;  // lane name -> span count
    unsigned counters = 0;
    for (const json::Value &e : parsed->asArray()) {
        const std::string &ph = e.at("ph").asString();
        if (ph == "X") {
            ++spans[e.at("cat").asString()];
            ++by_lane[names.at(
                static_cast<unsigned>(e.at("tid").asNumber()))];
            EXPECT_GE(e.at("dur").asNumber(), 0.0);
            EXPECT_GE(e.at("ts").asNumber(), 0.0);
        } else if (ph == "C") {
            ++counters;
        }
    }
    EXPECT_GT(spans["firmware"], 0u) << "no per-core firmware steps";
    EXPECT_GT(spans["dma"], 0u) << "no DMA assist activity";
    EXPECT_GT(spans["mac"], 0u) << "no MAC assist activity";
    EXPECT_GT(spans["sdram"], 0u) << "no SDRAM bursts";
    EXPECT_GT(counters, 0u) << "no occupancy samples";
    for (unsigned c = 0; c < cfg.cores; ++c)
        EXPECT_GT(by_lane["core" + std::to_string(c)], 0u)
            << "core " << c << " recorded no firmware spans";
    EXPECT_GT(by_lane["mac-tx"], 0u);
    EXPECT_GT(by_lane["mac-rx"], 0u);
    EXPECT_GT(by_lane["sdram"], 0u);

    // The same run also feeds the latency histogram and per-core IPC
    // that the bench JSON reports consume.
    EXPECT_EQ(r.coreIpc.size(), cfg.cores);
    EXPECT_GT(r.rxLatency.count, 0u);
    EXPECT_GT(r.rxLatency.p50Us, 0.0);
    EXPECT_LE(r.rxLatency.p50Us, r.rxLatency.p95Us);
    EXPECT_LE(r.rxLatency.p95Us, r.rxLatency.p99Us);
    EXPECT_LE(r.rxLatency.p99Us, r.rxLatency.maxUs + 1e-9);
}

TEST(NicLatency, OverloadedSmallFrameDuplexResolvesPercentiles)
{
    // 64 B frames in both directions at line rate overload the
    // firmware: the receive MAC sheds load and delivered frames queue
    // for 100-300 µs.  The latency histogram must span that range,
    // or every percentile whose rank lands past it reads the maximum.
    NicConfig cfg;
    cfg.txPayloadBytes = 18; // 64 B frames
    cfg.rxPayloadBytes = 18;
    NicController nic(cfg);
    NicResults r = nic.run(tickPerMs / 4, tickPerMs / 2);

    ASSERT_GT(r.rxLatency.count, 0u);
    EXPECT_GT(r.rxDropped, 0u) << "shape no longer overloads the NIC";
    EXPECT_GT(r.rxLatency.maxUs, 100.0);
    EXPECT_LT(r.rxLatency.p50Us, r.rxLatency.p99Us);
    EXPECT_LT(r.rxLatency.p99Us, r.rxLatency.maxUs);
}
