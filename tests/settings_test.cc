// AnalysisSettings::Parse/ToString — the single settings-string grammar
// shared by the NDJSON protocol and the CLI tools — must round-trip every
// granularity/FK/isolation combination and reject malformed strings.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "summary/dep_tables.h"

namespace mvrc {
namespace {

TEST(SettingsStringTest, RoundTripsEveryCombination) {
  for (const AnalysisSettings& base :
       {AnalysisSettings::TupleDep(), AnalysisSettings::AttrDep(),
        AnalysisSettings::TupleDepFk(), AnalysisSettings::AttrDepFk()}) {
    for (IsolationLevel level : {IsolationLevel::kMvrc, IsolationLevel::kRc}) {
      const AnalysisSettings settings = base.WithIsolation(level);
      Result<AnalysisSettings> parsed = AnalysisSettings::Parse(settings.ToString());
      ASSERT_TRUE(parsed.ok()) << settings.ToString() << ": " << parsed.error();
      EXPECT_TRUE(parsed.value().SameAnalysis(settings)) << settings.ToString();
      EXPECT_EQ(parsed.value().ToString(), settings.ToString());
    }
  }
}

TEST(SettingsStringTest, CanonicalStringsAreBackwardCompatible) {
  // The pre-isolation protocol strings parse to the same settings as before,
  // and MVRC settings print without an isolation suffix.
  EXPECT_EQ(AnalysisSettings::AttrDepFk().ToString(), "attr+fk");
  EXPECT_EQ(AnalysisSettings::AttrDep().ToString(), "attr");
  EXPECT_EQ(AnalysisSettings::TupleDepFk().ToString(), "tpl+fk");
  EXPECT_EQ(AnalysisSettings::TupleDep().ToString(), "tpl");
  EXPECT_EQ(AnalysisSettings::AttrDepFk().WithIsolation(IsolationLevel::kRc).ToString(),
            "attr+fk+rc");
  EXPECT_EQ(AnalysisSettings::TupleDep().WithIsolation(IsolationLevel::kRc).ToString(),
            "tpl+rc");
}

TEST(SettingsStringTest, ParseAcceptsExplicitMvrc) {
  Result<AnalysisSettings> parsed = AnalysisSettings::Parse("attr+fk+mvrc");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().SameAnalysis(AnalysisSettings::AttrDepFk()));
}

TEST(SettingsStringTest, ParseReportsIsolationExplicitness) {
  // The protocol layers its own default isolation over strings that leave
  // it implicit; Parse is the single authority on which ones those are.
  bool explicit_isolation = true;
  ASSERT_TRUE(AnalysisSettings::Parse("attr+fk", &explicit_isolation).ok());
  EXPECT_FALSE(explicit_isolation);
  ASSERT_TRUE(AnalysisSettings::Parse("attr+fk+mvrc", &explicit_isolation).ok());
  EXPECT_TRUE(explicit_isolation);
  ASSERT_TRUE(AnalysisSettings::Parse("tpl+rc", &explicit_isolation).ok());
  EXPECT_TRUE(explicit_isolation);
  EXPECT_FALSE(AnalysisSettings::Parse("tpl+xx", &explicit_isolation).ok());
  EXPECT_FALSE(explicit_isolation);  // reset on error paths too
}

TEST(SettingsStringTest, ParseRejectsMalformedStrings) {
  for (const std::string& bad :
       {"", "+", "fk", "attr+", "attr++fk", "attr+rc+fk", "attr+fk+xx", "attr+fk+rc+fk",
        "ATTR", "tpl+FK", "attr +fk", "attr+fk "}) {
    Result<AnalysisSettings> parsed = AnalysisSettings::Parse(bad);
    EXPECT_FALSE(parsed.ok()) << "\"" << bad << "\" unexpectedly parsed";
    if (!parsed.ok()) {
      EXPECT_NE(parsed.error().find("unknown settings"), std::string::npos);
    }
  }
}

TEST(SettingsStringTest, DisplayNamesCarryIsolationSuffix) {
  EXPECT_STREQ(AnalysisSettings::AttrDepFk().name(), "attr dep + FK");
  EXPECT_STREQ(AnalysisSettings::AttrDepFk().WithIsolation(IsolationLevel::kRc).name(),
               "attr dep + FK @ rc");
  EXPECT_STREQ(AnalysisSettings::TupleDep().WithIsolation(IsolationLevel::kRc).name(),
               "tpl dep @ rc");
}

}  // namespace
}  // namespace mvrc
