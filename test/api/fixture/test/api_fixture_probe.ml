let tested = Api_fixture.Exporter.tested
