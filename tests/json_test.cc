// The zero-dependency JSON reader/writer behind the service protocol:
// construction, deterministic dumping, parsing, round trips, malformed-input
// rejection — plus a protocol-level smoke test driving mvrcd request
// strings through HandleRequestLine.

#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "service/protocol.h"
#include "service/session_manager.h"
#include "util/json.h"

namespace mvrc {
namespace {

TEST(JsonTest, BuildAndDump) {
  Json json = Json::Object();
  json.Set("null", Json::Null());
  json.Set("yes", Json::Bool(true));
  json.Set("count", Json::Int(42));
  json.Set("pi", Json::Number(3.25));
  json.Set("name", Json::Str("mvrc"));
  Json array = Json::Array();
  array.Append(Json::Int(1)).Append(Json::Int(-2)).Append(Json::Str("x"));
  json.Set("items", std::move(array));
  EXPECT_EQ(json.Dump(),
            R"({"null":null,"yes":true,"count":42,"pi":3.25,"name":"mvrc","items":[1,-2,"x"]})");
}

TEST(JsonTest, SetOverwritesInPlaceKeepingOrder) {
  Json json = Json::Object();
  json.Set("a", Json::Int(1));
  json.Set("b", Json::Int(2));
  json.Set("a", Json::Int(3));
  EXPECT_EQ(json.Dump(), R"({"a":3,"b":2})");
}

TEST(JsonTest, StringEscaping) {
  Json json = Json::Str("quote\" backslash\\ newline\n tab\t bell\x07");
  EXPECT_EQ(json.Dump(), "\"quote\\\" backslash\\\\ newline\\n tab\\t bell\\u0007\"");
  // UTF-8 passes through unescaped.
  EXPECT_EQ(Json::Str("caf\xC3\xA9").Dump(), "\"caf\xC3\xA9\"");
}

TEST(JsonTest, IntegralNumbersDumpWithoutFraction) {
  EXPECT_EQ(Json::Number(7.0).Dump(), "7");
  EXPECT_EQ(Json::Number(-0.5).Dump(), "-0.5");
  EXPECT_EQ(Json::Int(int64_t{1} << 40).Dump(), "1099511627776");
}

TEST(JsonTest, ParseScalars) {
  EXPECT_TRUE(Json::Parse("null").value().is_null());
  EXPECT_EQ(Json::Parse("true").value().bool_value(), true);
  EXPECT_EQ(Json::Parse("false").value().bool_value(), false);
  EXPECT_EQ(Json::Parse("42").value().int_value(), 42);
  EXPECT_EQ(Json::Parse("-17").value().int_value(), -17);
  EXPECT_DOUBLE_EQ(Json::Parse("2.5e2").value().number_value(), 250.0);
  EXPECT_DOUBLE_EQ(Json::Parse("-0.125").value().number_value(), -0.125);
  EXPECT_EQ(Json::Parse("0").value().int_value(), 0);
  EXPECT_EQ(Json::Parse("\"hi\"").value().string_value(), "hi");
  EXPECT_EQ(Json::Parse("  \t\n 1 \r\n ").value().int_value(), 1);
}

TEST(JsonTest, ParseEscapesAndUnicode) {
  EXPECT_EQ(Json::Parse(R"("a\"b\\c\/d\be\ff\ng\rh\ti")").value().string_value(),
            "a\"b\\c/d\be\ff\ng\rh\ti");
  EXPECT_EQ(Json::Parse(R"("\u0041")").value().string_value(), "A");
  EXPECT_EQ(Json::Parse(R"("\u00e9")").value().string_value(), "\xC3\xA9");
  EXPECT_EQ(Json::Parse(R"("\u20ac")").value().string_value(), "\xE2\x82\xAC");
  // Surrogate pair: U+1F600.
  EXPECT_EQ(Json::Parse(R"("\ud83d\ude00")").value().string_value(), "\xF0\x9F\x98\x80");
}

TEST(JsonTest, IntValueClampsOutOfRangeNumbers) {
  EXPECT_EQ(Json::Parse("1e300").value().int_value(),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(Json::Parse("-1e300").value().int_value(),
            std::numeric_limits<int64_t>::min());
  EXPECT_EQ(Json::Parse("1e18").value().int_value(), 1'000'000'000'000'000'000);
}

TEST(JsonTest, ParseContainers) {
  Json parsed = Json::Parse(R"({"a":[1,2,{"b":null}],"c":{"d":[[]]}})").value();
  ASSERT_TRUE(parsed.is_object());
  ASSERT_NE(parsed.Find("a"), nullptr);
  EXPECT_EQ(parsed.Find("a")->size(), 3);
  EXPECT_TRUE(parsed.Find("a")->at(2).Find("b")->is_null());
  EXPECT_EQ(parsed.Find("c")->Find("d")->at(0).size(), 0);
  EXPECT_EQ(parsed.Find("missing"), nullptr);
}

TEST(JsonTest, DuplicateKeysLastWins) {
  EXPECT_EQ(Json::Parse(R"({"k":1,"k":2})").value().GetInt("k"), 2);
}

TEST(JsonTest, RoundTrip) {
  const std::vector<std::string> documents = {
      "null",
      "[]",
      "{}",
      R"({"a":1,"b":[true,false,null],"c":"x\ny","d":-2.5})",
      R"([[[["deep"]]],{"k":{"l":{"m":0}}}])",
  };
  for (const std::string& document : documents) {
    Result<Json> first = Json::Parse(document);
    ASSERT_TRUE(first.ok()) << document;
    std::string dumped = first.value().Dump();
    EXPECT_EQ(dumped, document);
    Result<Json> second = Json::Parse(dumped);
    ASSERT_TRUE(second.ok());
    EXPECT_TRUE(first.value() == second.value()) << document;
  }
}

TEST(JsonTest, MalformedInputsAreErrorsNotCrashes) {
  const std::vector<std::string> inputs = {
      "",            "   ",          "{",          "[",           "\"unterminated",
      "tru",         "nul",          "+1",         "01",          "1.",
      "1e",          ".5",           "nan",        "Infinity",    "[1,]",
      "[1 2]",       "{\"a\" 1}",    "{\"a\":}",   "{a:1}",       "{'a':1}",
      "[1]extra",    "\"bad\\x\"",   "\"\\u12\"",  "\"\\ud800\"", "\"\\ud800\\u0041\"",
      "\"\\udc00\"", "\"ctrl\x01\"", "{\"k\":01}",
  };
  for (const std::string& input : inputs) {
    Result<Json> parsed = Json::Parse(input);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << input;
    if (!parsed.ok()) {
      EXPECT_NE(parsed.error().find("json parse error"), std::string::npos);
    }
  }
}

TEST(JsonTest, NestingDepthIsBounded) {
  std::string deep;
  for (int i = 0; i < Json::kMaxDepth + 10; ++i) deep += "[";
  EXPECT_FALSE(Json::Parse(deep).ok());
  // kMaxDepth itself parses fine.
  std::string ok_depth;
  for (int i = 0; i < Json::kMaxDepth; ++i) ok_depth += "[";
  for (int i = 0; i < Json::kMaxDepth; ++i) ok_depth += "]";
  EXPECT_TRUE(Json::Parse(ok_depth).ok());
}

TEST(JsonTest, ConvenienceLookups) {
  Json json = Json::Parse(R"({"s":"text","n":7,"b":true})").value();
  EXPECT_EQ(json.GetString("s"), "text");
  EXPECT_EQ(json.GetString("n", "fallback"), "fallback");  // wrong kind
  EXPECT_EQ(json.GetInt("n"), 7);
  EXPECT_EQ(json.GetInt("s", -1), -1);
  EXPECT_TRUE(json.GetBool("b"));
  EXPECT_FALSE(json.GetBool("missing"));
}

// --- Protocol-level smoke test: the request strings a client would pipe
// into mvrcd, driven through the same entry point the daemon loop uses.

std::string Respond(SessionManager& manager, const std::string& line) {
  return HandleRequestLine(manager, line);
}

TEST(ProtocolTest, ScriptedSessionSmoke) {
  SessionManager manager;

  Json load = Json::Parse(Respond(manager,
                                  R"({"cmd":"load_sql","session":"sb","builtin":"smallbank"})"))
                  .value();
  EXPECT_TRUE(load.GetBool("ok"));
  EXPECT_EQ(load.GetInt("num_programs"), 5);
  EXPECT_EQ(load.Find("programs")->size(), 5);

  Json check = Json::Parse(Respond(manager, R"({"cmd":"check","session":"sb"})")).value();
  EXPECT_TRUE(check.GetBool("ok"));
  // SmallBank as a whole is not robust under attr dep + FK (paper §7.2);
  // the witness is included on the fresh, uncached verdict.
  EXPECT_FALSE(check.GetBool("robust"));
  EXPECT_FALSE(check.GetBool("cached"));
  EXPECT_NE(check.Find("witness"), nullptr);

  Json again = Json::Parse(Respond(manager, R"({"cmd":"check","session":"sb"})")).value();
  EXPECT_TRUE(again.GetBool("cached"));

  Json subsets = Json::Parse(Respond(manager, R"({"cmd":"subsets","session":"sb"})")).value();
  EXPECT_TRUE(subsets.GetBool("ok"));
  EXPECT_EQ(subsets.GetInt("num_robust_subsets"), 10);  // Figure 6, attr+FK row
  EXPECT_EQ(subsets.Find("maximal")->size(), 3);

  Json removed =
      Json::Parse(Respond(manager, R"({"cmd":"remove_program","session":"sb","name":"Balance"})"))
          .value();
  EXPECT_TRUE(removed.GetBool("ok"));
  EXPECT_EQ(removed.GetInt("num_programs"), 4);

  // The subsets request left the session its minimal non-robust cores, and
  // the 4-program set lies inside the set it analysed, so the incremental
  // re-check is answered without the detector.
  Json recheck = Json::Parse(Respond(manager, R"({"cmd":"check","session":"sb"})")).value();
  EXPECT_TRUE(recheck.GetBool("ok"));
  EXPECT_TRUE(recheck.GetBool("cached"));

  Json stats = Json::Parse(Respond(manager, R"({"cmd":"stats","session":"sb"})")).value();
  EXPECT_TRUE(stats.GetBool("ok"));
  EXPECT_EQ(stats.GetInt("programs_added"), 5);
  EXPECT_EQ(stats.GetInt("programs_removed"), 1);
  EXPECT_GT(stats.GetInt("verdict_cache_hits"), 0);

  Json global = Json::Parse(Respond(manager, R"({"cmd":"stats"})")).value();
  EXPECT_TRUE(global.GetBool("ok"));
  EXPECT_EQ(global.Find("sessions")->size(), 1);

  Json dropped =
      Json::Parse(Respond(manager, R"({"cmd":"drop_session","session":"sb"})")).value();
  EXPECT_TRUE(dropped.GetBool("dropped"));
  EXPECT_EQ(Json::Parse(Respond(manager, R"({"cmd":"stats"})")).value().Find("sessions")->size(),
            0);
}

TEST(ProtocolTest, SubsetsAfterRemovalReusesVerdicts) {
  SessionManager manager;
  ASSERT_TRUE(Json::Parse(Respond(manager,
                                  R"({"cmd":"load_sql","session":"sb","builtin":"smallbank"})"))
                  .value()
                  .GetBool("ok"));
  Json subsets = Json::Parse(Respond(manager, R"({"cmd":"subsets","session":"sb"})")).value();
  EXPECT_EQ(subsets.GetInt("num_robust_subsets"), 10);
  ASSERT_TRUE(
      Json::Parse(Respond(manager, R"({"cmd":"remove_program","session":"sb","name":"Balance"})"))
          .value()
          .GetBool("ok"));

  // The first search confirmed the maximal robust set {Amalgamate,
  // DepositChecking, TransactSavings} as a candidate; that set is maximal in
  // the 4-program workload too, so the second search finds its verdict in
  // the cache.
  const int64_t hits_before =
      Json::Parse(Respond(manager, R"({"cmd":"stats","session":"sb"})"))
          .value()
          .GetInt("verdict_cache_hits");
  Json resubsets =
      Json::Parse(Respond(manager, R"({"cmd":"subsets","session":"sb"})")).value();
  EXPECT_TRUE(resubsets.GetBool("ok"));
  EXPECT_EQ(resubsets.GetInt("num_robust_subsets"), 7);  // subsets of {Am, DC, TS}
  EXPECT_EQ(resubsets.Find("maximal")->size(), 1);
  EXPECT_GT(Json::Parse(Respond(manager, R"({"cmd":"stats","session":"sb"})"))
                .value()
                .GetInt("verdict_cache_hits"),
            hits_before);
}

TEST(ProtocolTest, AddReplaceCounterexampleFlow) {
  SessionManager manager;
  Json load = Json::Parse(Respond(manager,
                                  R"({"cmd":"load_sql","session":"a","builtin":"auction"})"))
                  .value();
  ASSERT_TRUE(load.GetBool("ok"));

  // Incremental SQL add against the builtin-loaded schema.
  const std::string count_calls_sql =
      R"(PROGRAM CountCalls(:B): SELECT calls FROM Buyer WHERE id = :B; COMMIT;)";
  Json added =
      Json::Parse(Respond(manager, R"({"cmd":"add_program","session":"a","sql":")" +
                                       count_calls_sql + R"("})"))
          .value();
  EXPECT_TRUE(added.GetBool("ok"));
  EXPECT_EQ(added.GetInt("num_programs"), 3);

  Json replaced =
      Json::Parse(Respond(manager, R"({"cmd":"replace_program","session":"a","sql":")" +
                                       count_calls_sql + R"("})"))
          .value();
  EXPECT_TRUE(replaced.GetBool("ok"));
  EXPECT_EQ(replaced.GetInt("num_programs"), 3);

  // The full auction workload is robust (Figure 6): a tightly bounded
  // search finds nothing.
  const std::string bounded_search =
      R"({"cmd":"counterexample","session":"a","max_txns":2,"max_schedules":20000})";
  Json clean = Json::Parse(Respond(manager, bounded_search)).value();
  EXPECT_TRUE(clean.GetBool("ok"));
  EXPECT_FALSE(clean.GetBool("found"));

  // WriteCheck alone is certified non-robust with a tiny search space
  // (certify_test.cc): the protocol path surfaces the schedule.
  ASSERT_TRUE(Json::Parse(Respond(manager,
                                  R"({"cmd":"load_sql","session":"wc","builtin":"smallbank"})"))
                  .value()
                  .GetBool("ok"));
  for (const char* name : {"Amalgamate", "Balance", "DepositChecking", "TransactSavings"}) {
    std::string request = R"({"cmd":"remove_program","session":"wc","name":")" +
                          std::string(name) + R"("})";
    ASSERT_TRUE(Json::Parse(Respond(manager, request)).value().GetBool("ok")) << name;
  }
  Json counterexample = Json::Parse(
                            Respond(manager,
                                    R"({"cmd":"counterexample","session":"wc","domain_size":1})"))
                            .value();
  EXPECT_TRUE(counterexample.GetBool("ok"));
  EXPECT_TRUE(counterexample.GetBool("found"));
  EXPECT_NE(counterexample.Find("description"), nullptr);
}

TEST(ProtocolTest, ErrorResponsesNeverAbort) {
  SessionManager manager;
  const std::vector<std::string> bad_requests = {
      "not json at all",
      "[]",
      R"({"no_cmd":1})",
      R"({"cmd":"bogus"})",
      R"({"cmd":"check"})",                                // missing session
      R"({"cmd":"check","session":"missing"})",            // unknown session
      R"({"cmd":"load_sql","session":"s"})",               // missing sql/builtin
      R"({"cmd":"load_sql","session":"s","builtin":"x"})",
      R"({"cmd":"load_sql","session":"s","settings":"zzz","builtin":"tpcc"})",
      R"({"cmd":"load_sql","session":"s","sql":"TABLE ("})",      // parse error
      R"({"cmd":"load_sql","session":"fresh","sql":"TABLE ("})",  // would-be new session
      R"({"cmd":"remove_program","session":"s2"})",
      R"({"cmd":"check","session":"s","method":"type3"})",
      R"({"cmd":"counterexample","session":"s","max_txns":0})",
      R"({"cmd":"counterexample","session":"s","max_schedules":1e300})",
      R"({"cmd":"counterexample","session":"s","domain_size":99})",
  };
  // Make "s" exist for the requests that need a live session.
  Respond(manager, R"({"cmd":"load_sql","session":"s","builtin":"smallbank"})");
  for (const std::string& request : bad_requests) {
    Json response = Json::Parse(Respond(manager, request)).value();
    EXPECT_FALSE(response.GetBool("ok", true)) << request;
    EXPECT_NE(response.Find("error"), nullptr) << request;
  }

  // Failed first loads must not leak empty sessions: only "s" (loaded
  // successfully above) exists afterwards.
  Json sessions = Json::Parse(Respond(manager, R"({"cmd":"stats"})")).value();
  ASSERT_EQ(sessions.Find("sessions")->size(), 1);
  EXPECT_EQ(sessions.Find("sessions")->at(0).string_value(), "s");
}

}  // namespace
}  // namespace mvrc
