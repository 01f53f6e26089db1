/** @file Unit tests for util/logging.hh. */

#include <gtest/gtest.h>

#include "util/logging.hh"

namespace mlc {
namespace {

TEST(Logging, ConcatBuildsMessages)
{
    EXPECT_EQ(detail::concat("a", 1, "b", 2.5), "a1b2.5");
    EXPECT_EQ(detail::concat("solo"), "solo");
}

TEST(Logging, PanicAborts)
{
    EXPECT_DEATH(mlc_panic("boom ", 42), "panic: boom 42");
}

TEST(Logging, FatalExitsWithStatusOne)
{
    EXPECT_EXIT(mlc_fatal("bad config"),
                testing::ExitedWithCode(1), "fatal: bad config");
}

TEST(Logging, FatalMessageNamesNoSourceLocation)
{
    // The newline right after the message: no "(<source>:<line>)".
    EXPECT_EXIT(mlc_fatal("bad --jobs value 'abc'"),
                testing::ExitedWithCode(1),
                "fatal: bad --jobs value 'abc'\n");
    EXPECT_DEATH(mlc_panic("boom"), "panic: boom \\(.*:[0-9]+\\)");
}

TEST(Logging, QuietSuppressesWarnings)
{
    setLogQuiet(true);
    EXPECT_TRUE(logQuiet());
    warn("this should not print");
    inform("neither should this");
    setLogQuiet(false);
    EXPECT_FALSE(logQuiet());
}

} // namespace
} // namespace mlc
